"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main, parse_size, parse_topology
from repro.topology import BiGraph, FatTree, Mesh2D, Ring1D, Torus2D, Torus3D


class TestParsers:
    def test_parse_size_suffixes(self):
        assert parse_size("32K") == 32 * 1024
        assert parse_size("4M") == 4 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("12345") == 12345
        assert parse_size("1.5M") == int(1.5 * (1 << 20))

    @pytest.mark.parametrize(
        "kind,dims,cls,nodes",
        [
            ("torus", "4x4", Torus2D, 16),
            ("mesh", "2x3", Mesh2D, 6),
            ("torus3d", "2x2x2", Torus3D, 8),
            ("ring1d", "7", Ring1D, 7),
            ("fattree", "4x4", FatTree, 16),
            ("bigraph", "2x4", BiGraph, 16),
        ],
    )
    def test_parse_topology(self, kind, dims, cls, nodes):
        topo = parse_topology(kind, dims)
        assert isinstance(topo, cls)
        assert topo.num_nodes == nodes

    def test_unknown_topology_exits(self):
        with pytest.raises(SystemExit):
            parse_topology("hypercube", "4x4")

    def test_bad_dims_exit(self):
        with pytest.raises(SystemExit):
            parse_topology("torus3d", "4x4")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "multitree" in out and "ResNet50" in out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "--topology", "torus", "--dims", "2x2",
            "--algorithms", "ring,multitree-msg", "--sizes", "32K,256K",
        ]) == 0
        out = capsys.readouterr().out
        assert "torus-2x2" in out
        assert "multitree-msg" in out
        assert "32 KiB" in out

    def test_trees_with_tables(self, capsys):
        assert main([
            "trees", "--topology", "mesh", "--dims", "2x2", "--tables",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 trees built in 2 time steps" in out
        assert "Accelerator 0" in out
        assert "Reduce" in out

    def test_train_nonoverlap(self, capsys):
        assert main([
            "train", "--model", "GoogLeNet", "--topology", "torus",
            "--dims", "2x2", "--algorithms", "ring,multitree",
        ]) == 0
        out = capsys.readouterr().out
        assert "GoogLeNet" in out and "comm share" in out

    def test_train_overlap(self, capsys):
        assert main([
            "train", "--model", "NCF", "--topology", "torus", "--dims", "2x2",
            "--algorithms", "multitree", "--overlap",
        ]) == 0
        out = capsys.readouterr().out
        assert "hidden" in out

    def test_unknown_model_exits(self):
        with pytest.raises(ValueError):
            main(["train", "--model", "VGG", "--dims", "2x2"])

    def test_trace_export_counts(self, tmp_path, capsys):
        """`repro trace` writes one message slice per message and one hop
        slice per hop, with and without lockstep gates."""
        import json

        from repro.collectives import build_schedule
        from repro.network import PacketBased
        from repro.ni.injector import build_messages

        topo = Torus2D(4, 4)
        messages = build_messages(
            build_schedule("dbtree", topo), 1 << 20, PacketBased()
        )
        hops = sum(len(msg.route) for msg in messages)
        counts = []
        for extra in ([], ["--no-lockstep"]):
            path = tmp_path / ("trace%d.json" % len(counts))
            assert main([
                "trace", "--topology", "torus-4x4", "--algorithm", "dbtree",
                "--size", "1MiB", "--output", str(path), *extra,
            ]) == 0
            assert "simulated finish time" in capsys.readouterr().out
            events = json.loads(path.read_text())["traceEvents"]
            phases = [event["ph"] for event in events]
            counts.append((phases.count("b"), phases.count("X")))
        assert counts == [(len(messages), hops)] * 2
        assert len(messages) == 480
