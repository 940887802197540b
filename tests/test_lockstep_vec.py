"""Vectorized lockstep engine: batched exactness, fallbacks, CLI wiring.

The exactness contract of :mod:`repro.network.lockstep_vec` — the scalar
lockstep engine is the oracle, and every number the vectorized engine
returns must be exactly ``==`` to the scalar engine's (including sizes
that fall back inside a batch).  Fallbacks must always be counted in
metrics, never silent.  The size-axis grammar guards
(:func:`repro.scenario.parse_sizes`) are exercised through both CLI
entry points that share it (``repro sweep`` and ``repro plan``).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.collectives import build_schedule, compile_schedule
from repro.metrics import collecting
from repro.network import NetworkSimulator, PacketBased
from repro.network.lockstep_vec import run_batch, run_lockstep_vec
from repro.ni.injector import build_messages
from repro.sweep import PredictionCache
from repro.sweep.artifacts import ArtifactStore
from repro.sweep.runner import SweepJob, SweepStats, run_sweep
from repro.topology import FatTree, Mesh2D, Torus2D

KiB = 1024
MiB = 1 << 20

CONFIGS = [
    pytest.param(lambda: Torus2D(4, 4), "multitree", id="torus-multitree"),
    pytest.param(lambda: Torus2D(4, 4), "ring", id="torus-ring"),
    pytest.param(lambda: Torus2D(4, 4), "dbtree", id="torus-dbtree"),
    pytest.param(lambda: Mesh2D(4, 4), "multitree", id="mesh-multitree"),
    pytest.param(lambda: Mesh2D(4, 4), "ring", id="mesh-ring"),
    pytest.param(lambda: Mesh2D(4, 4), "dbtree", id="mesh-dbtree"),
    pytest.param(lambda: FatTree(4, 4), "multitree", id="fattree-multitree"),
    pytest.param(lambda: FatTree(4, 4), "ring", id="fattree-ring"),
    pytest.param(lambda: FatTree(4, 4), "dbtree", id="fattree-dbtree"),
]

# Column storage of the compiled schedule under test: plain lists fresh
# from compile_schedule ("cold", the bare config id), or lazy numpy shard
# columns loaded back from an ArtifactStore ("-artifact").  The
# vectorized engine must plan both identically.
STORAGE_CONFIGS = [
    pytest.param(
        *config.values, storage,
        id=config.id + ("" if storage == "cold" else "-" + storage),
    )
    for storage in ("cold", "artifact")
    for config in CONFIGS
]

# One compiled schedule per configuration for the whole battery: the
# compiled form memoizes its vectorization plan, so sharing it across
# hypothesis examples also exercises plan reuse at many sizes.
_COMPILED = {}


@pytest.fixture(scope="module")
def artifact_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("artifacts"))


def compiled_for(make_topo, algorithm, storage="cold", root=None):
    key = (make_topo, algorithm, storage)
    if key not in _COMPILED:
        topo = make_topo()
        compiled = compile_schedule(build_schedule(algorithm, topo))
        if storage == "artifact":
            ArtifactStore(root).put(compiled)
            compiled = ArtifactStore(root).get(topo, algorithm)
            assert not isinstance(compiled.steps, list)
        _COMPILED[key] = compiled
    return _COMPILED[key]


def assert_identical(a, b):
    """Full bitwise equality between two SimulationResults."""
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestBatchedExactness:
    """run_batch(sizes) == N independent scalar lockstep runs, exactly."""

    @pytest.mark.parametrize("make_topo,algorithm,storage", STORAGE_CONFIGS)
    @settings(max_examples=6, deadline=None)
    @given(base=st.integers(4 * KiB, 4 * MiB), ladder=st.integers(2, 4))
    def test_run_batch_equals_scalar_runs(
        self, make_topo, algorithm, storage, artifact_root, base, ladder
    ):
        compiled = compiled_for(make_topo, algorithm, storage, artifact_root)
        fc = PacketBased()
        sizes = [base << step for step in range(ladder)]
        batch = compiled.simulate_batch(sizes, fc, keep_timings=True)
        assert batch.sizes == tuple(sizes)
        assert len(batch.points) == len(sizes)
        assert batch.fallbacks == sum(
            1 for point in batch.points if point.engine != "lockstep-vec"
        )
        for size, point, outcome in zip(sizes, batch.points, batch.results):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert point.data_bytes == size
            assert point.time == scalar.time
            assert point.bandwidth == scalar.bandwidth
            assert point.max_queue_delay == scalar.max_queue_delay()
            assert_identical(outcome.simulation, scalar.simulation)

    @pytest.mark.parametrize("make_topo,algorithm,storage", STORAGE_CONFIGS)
    def test_single_size_batch_matches_simulate(
        self, make_topo, algorithm, storage, artifact_root
    ):
        """engine="lockstep-vec" through CompiledSchedule.simulate is the
        one-column batch and equals the scalar engine exactly."""
        compiled = compiled_for(make_topo, algorithm, storage, artifact_root)
        fc = PacketBased()
        for size in (32 * KiB, 2 * MiB):
            vec = compiled.simulate(size, fc, engine="lockstep-vec")
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert vec.time == scalar.time
            assert_identical(vec.simulation, scalar.simulation)

    def test_raw_message_engine_equals_event(self):
        """NetworkSimulator.run(engine="lockstep-vec") on an accepting
        message set produces the vectorized result itself, bit-identical
        to the event engine."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("ring", topo)
        messages = build_messages(schedule, 10 * MiB, fc)
        vec = run_lockstep_vec(topo, fc, messages)
        assert vec is not None  # the engine itself, not a fallback
        event = NetworkSimulator(topo, fc).run(messages)
        assert_identical(vec, event)

    def test_permuted_messages_decline_with_plan(self):
        """A message list whose gate groups are not contiguous index
        ranges is not range-plannable: the vectorized engine declines
        with ``plan``, once, and the scalar ladder answers exactly."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        messages = build_messages(build_schedule("ring", topo), 10 * MiB, fc)
        last = len(messages) - 1
        permuted = [
            dataclasses.replace(
                msg, deps=tuple(sorted(last - dep for dep in msg.deps))
            )
            for msg in reversed(messages)
        ]
        with collecting() as registry:
            assert run_lockstep_vec(topo, fc, permuted) is None
        assert registry.snapshot()["counters"] == {
            "sim.fallbacks|engine=lockstep-vec,reason=plan,topology=%s"
            % topo.name: 1.0
        }
        sim = NetworkSimulator(topo, fc)
        assert_identical(
            sim.run(permuted, engine="lockstep-vec"), sim.run(permuted)
        )

    def test_batch_rejects_bad_sizes(self):
        compiled = compiled_for(*CONFIGS[1].values)  # torus-4x4 / ring
        with pytest.raises(ValueError):
            run_batch(compiled, [])
        with pytest.raises(ValueError):
            run_batch(compiled, [32 * KiB, 0])


class TestFallbackCounting:
    def test_batch_fallbacks_counted_and_exact(self):
        """dbtree steps are not link-disjoint: the whole batch falls back
        to the scalar engine, per size, counted — and still exact."""
        compiled = compiled_for(*CONFIGS[2].values)  # torus-4x4 / dbtree
        fc = PacketBased()
        sizes = (32 * KiB, 256 * KiB, 2 * MiB)
        with collecting() as registry:
            batch = compiled.simulate_batch(sizes, fc)
        assert batch.fallbacks == len(sizes)
        assert all(point.engine == "lockstep" for point in batch.points)
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep-vec",
            reason="link-disjointness", topology=compiled.topology.name,
        ) == len(sizes)
        for size, point in zip(sizes, batch.points):
            scalar = compiled.simulate(size, fc, engine="lockstep")
            assert point.time == scalar.time

    def test_non_lockstep_gated_falls_down_ladder(self):
        """Ungated messages decline the vectorized engine AND the scalar
        step engine; the run lands on the event engine with one counted
        fallback per rung."""
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("multitree", topo)
        messages = build_messages(schedule, 1 * MiB, fc, lockstep=False)
        assert run_lockstep_vec(topo, fc, messages) is None
        with collecting() as registry:
            result = NetworkSimulator(topo, fc).run(
                messages, engine="lockstep-vec"
            )
        for engine in ("lockstep-vec", "lockstep"):
            assert registry.counter_value(
                "sim.fallbacks", engine=engine, reason="not-lockstep-gated",
                topology=topo.name,
            ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert_identical(result, NetworkSimulator(topo, fc).run(messages))

    def test_accepted_run_counted_as_vec(self):
        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("ring", topo)
        messages = build_messages(schedule, 10 * MiB, fc)
        with collecting() as registry:
            NetworkSimulator(topo, fc).run(messages, engine="lockstep-vec")
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology=topo.name
        ) == 1
        assert not any(
            key.startswith("sim.fallbacks|")
            for key in registry.snapshot()["counters"]
        )

    def test_recorder_declines_vectorization(self):
        """Trace recording is per-message; the vectorized engine declines
        and the scalar ladder records identically (recorder parity is
        pinned in test_lockstep_engine.py)."""
        from repro.trace import Trace

        topo = Torus2D(4, 4)
        fc = PacketBased()
        schedule = build_schedule("ring", topo)
        messages = build_messages(schedule, 10 * MiB, fc)
        assert run_lockstep_vec(topo, fc, messages, recorder=Trace()) is None


class TestSweepBatching:
    def test_batched_sweep_fills_cache_in_one_simulation(self, tmp_path):
        """A lockstep-vec sweep series runs ONE batched simulation for all
        its cold sizes and fills the prediction cache; the repeat run is
        fully warm."""
        cache_path = str(tmp_path / "cache.json")
        sizes = (32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB)
        job = SweepJob(
            topology="torus-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep-vec",
        )
        with collecting() as registry:
            stats = SweepStats()
            sweeps = run_sweep([job], cache_path=cache_path, stats=stats)
        assert stats.cache_misses == len(sizes)
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology="torus-4x4"
        ) == len(sizes)
        # Warm rerun: served entirely from the cache, nothing simulated.
        with collecting() as registry:
            stats2 = SweepStats()
            warm = run_sweep([job], cache_path=cache_path, stats=stats2)
        assert stats2.cache_hits == len(sizes)
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep-vec", topology="torus-4x4"
        ) == 0
        assert [p.bandwidth for p in warm[0].points] == [
            p.bandwidth for p in sweeps[0].points
        ]

    def test_batched_sweep_matches_scalar_engine_sweep(self, tmp_path):
        """The cached numbers from the batched path equal a scalar
        lockstep sweep of the same series exactly."""
        sizes = (32 * KiB, 128 * KiB, 512 * KiB)
        vec_job = SweepJob(
            topology="mesh-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep-vec",
        )
        scalar_job = SweepJob(
            topology="mesh-4x4", algorithm="ring", sizes=sizes,
            engine="lockstep",
        )
        (vec,) = run_sweep([vec_job])
        (scalar,) = run_sweep([scalar_job])
        assert [(p.time, p.bandwidth) for p in vec.points] == [
            (p.time, p.bandwidth) for p in scalar.points
        ]

    def test_engine_minted_into_cache_key(self, tmp_path):
        """A new engine value must mint new cache keys, not reuse the
        scalar engine's entries."""
        cache_path = str(tmp_path / "cache.json")
        sizes = (32 * KiB,)
        for engine in ("lockstep", "lockstep-vec"):
            job = SweepJob(
                topology="torus-4x4", algorithm="ring", sizes=sizes,
                engine=engine,
            )
            run_sweep([job], cache_path=cache_path)
        cache = PredictionCache(cache_path)
        assert len(cache) == 2 * len(sizes)


class TestSizeAxisGuards:
    """parse_sizes rejections through both CLI paths sharing the grammar."""

    def test_sweep_rejects_descending_range(self, capsys):
        with pytest.raises(SystemExit, match="bad size range"):
            main([
                "sweep", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "1M..32K",
            ])

    def test_sweep_rejects_zero_size(self, capsys):
        with pytest.raises(SystemExit, match="must be positive"):
            main([
                "sweep", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "32K,0",
            ])

    def test_plan_rejects_descending_range(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="bad size range"):
            main([
                "plan", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "64M..1M",
                "--state-dir", str(tmp_path),
            ])

    def test_plan_rejects_zero_size(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="must be positive"):
            main([
                "plan", "--topology", "torus", "--dims", "2x2",
                "--algorithms", "ring", "--sizes", "0",
                "--state-dir", str(tmp_path),
            ])
