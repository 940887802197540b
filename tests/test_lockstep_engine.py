"""Exact-equivalence battery and fallback behavior of the scalar core.

The lockstep step loop (:mod:`repro.network.lockstep_engine`) must
produce *bit-identical* results to the event heap — equal
``finish_time``, per-message timings, ``link_busy`` and
``total_wire_bytes``, not merely approximately equal — on every topology
family and algorithm, at every data size.  When it cannot guarantee that
(non-lockstep-gated messages, processing-order overruns), the heap must
answer instead rather than return divergent numbers.
"""

import pytest

from repro.collectives import build_schedule, compile_schedule
from repro.metrics import collecting
from repro.network import Message, NetworkSimulator, PacketBased
from repro.network.lockstep_engine import LinkTable, link_table
from repro.ni.injector import build_messages, simulate_allreduce
from repro.topology import BiGraph, FatTree, Mesh2D, Torus2D

KiB = 1024
MiB = 1 << 20
ENGINES = ["event", "lockstep", "lockstep-vec"]

TOPOLOGIES = [
    pytest.param(lambda: Torus2D(4, 4), id="torus"),
    pytest.param(lambda: Mesh2D(4, 4), id="mesh"),
    pytest.param(lambda: FatTree(4, 4), id="fattree"),
    pytest.param(lambda: BiGraph(4, 4), id="bigraph"),
]
ALGORITHMS = ["multitree", "ring", "dbtree"]
SIZES = [4 * KiB, 256 * KiB, 10 * MiB]


def assert_identical(a, b):
    """Full bitwise equality between two SimulationResults."""
    assert a.finish_time == b.finish_time
    assert a.timings == b.timings
    assert a.link_busy == b.link_busy
    assert a.total_wire_bytes == b.total_wire_bytes


class TestEquivalenceBattery:
    """engine="lockstep" equals engine="event" exactly, everywhere."""

    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("engine", ["lockstep", "lockstep-vec"])
    def test_exact_equality(self, make_topo, algorithm, engine):
        topo = make_topo()
        schedule = build_schedule(algorithm, topo)
        for size in SIZES:
            event = simulate_allreduce(schedule, size)
            stepped = simulate_allreduce(schedule, size, engine=engine)
            assert_identical(event.simulation, stepped.simulation)

    @pytest.mark.parametrize("make_topo", TOPOLOGIES)
    def test_compiled_exact_equality(self, make_topo):
        """The compiled fast path is bit-identical too (all its tiers,
        including the batched vectorized engine)."""
        topo = make_topo()
        for algorithm in ALGORITHMS:
            compiled = compile_schedule(build_schedule(algorithm, topo))
            schedule = build_schedule(algorithm, topo)
            for size in SIZES:
                event = simulate_allreduce(schedule, size)
                fast = compiled.simulate(size)
                assert_identical(event.simulation, fast.simulation)
                vec = compiled.simulate(size, engine="lockstep-vec")
                assert_identical(event.simulation, vec.simulation)

    def test_grouped_fast_path_engages(self):
        """At serialization-dominated sizes the step loop itself (not the
        heap fallback) must produce the results."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        fc = PacketBased()
        messages = build_messages(schedule, 10 * MiB, fc)
        sim = NetworkSimulator(topo, fc)
        with collecting() as registry:
            result = sim.run(messages, engine="lockstep")
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 1
        assert_identical(sim.run(messages), result)

    def test_engine_invariant_utilization(self):
        """Every engine reports the same link-busy floats, so utilization
        and the busy-time counter agree to the last bit."""
        topo = Torus2D(6, 6)
        schedule = build_schedule("multitree", topo)
        seen = set()
        for engine in ENGINES:
            with collecting() as registry:
                result = simulate_allreduce(schedule, MiB, engine=engine)
            sim = result.simulation
            counter = registry.counter_value(
                "sim.link_busy_time", topology=topo.name, flow="packet"
            )
            seen.add((
                sim.mean_link_utilization(topo),
                sum(sim.link_busy.values()),
                counter,
            ))
        assert len(seen) == 1, seen
        (_util, busy, counter), = seen
        assert counter == busy


class TestFallback:
    def test_ungated_with_deps_falls_back(self):
        """lockstep=False lowering (no gates) must reach the heap and
        still give identical results."""
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        fc = PacketBased()
        messages = build_messages(schedule, 1 * MiB, fc, lockstep=False)
        sim = NetworkSimulator(topo, fc)
        with collecting() as registry:
            stepped = sim.run(messages, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="not-lockstep-gated",
            topology=topo.name,
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert_identical(sim.run(messages), stepped)

    def test_fallback_counted_in_metrics(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("multitree", topo)
        fc = PacketBased()
        messages = build_messages(schedule, 1 * MiB, fc, lockstep=False)
        with collecting() as registry:
            NetworkSimulator(topo, fc).run(messages, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="not-lockstep-gated",
            topology=topo.name,
        ) == 1
        # The run itself lands on the event engine.
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 0

    def test_fast_path_counted_in_metrics(self):
        topo = Torus2D(4, 4)
        schedule = build_schedule("ring", topo)
        fc = PacketBased()
        messages = build_messages(schedule, 10 * MiB, fc)
        with collecting() as registry:
            NetworkSimulator(topo, fc).run(messages, engine="lockstep")
        assert registry.counter_value(
            "sim.engine_runs", engine="lockstep", topology=topo.name
        ) == 1
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology=topo.name
        ) == 0
        assert not any(
            key.startswith("sim.fallbacks|")
            for key in registry.snapshot()["counters"]
        )

    def test_unknown_engine_rejected(self):
        sim = NetworkSimulator(Torus2D(2, 2), PacketBased())
        with pytest.raises(ValueError, match="unknown engine"):
            sim.run([], engine="warp")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_messages(self, engine):
        sim = NetworkSimulator(Torus2D(2, 2), PacketBased())
        res = sim.run([], engine=engine)
        assert res.finish_time == 0.0
        assert res.timings == []
        assert res.link_busy == {}
        assert res.total_wire_bytes == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_foreign_route_rejected(self, engine):
        """A route naming a link the topology lacks is rejected up front,
        with the message index and the link, on every engine."""
        topo = Torus2D(2, 2)
        messages = [
            Message(0, 1, 1024.0, route=[(0, 1)]),
            Message(0, 1, 1024.0, route=[(0, 1), (97, 99)]),
        ]
        sim = NetworkSimulator(topo, PacketBased())
        with collecting() as registry:
            with pytest.raises(ValueError, match=r"message 1 .*\(97, 99\)"):
                sim.run(messages, engine=engine)
        assert not any(
            "unknown-link" in key for key in registry.snapshot()["counters"]
        )

    @pytest.mark.parametrize("engine", ENGINES + ["compile"])
    def test_foreign_schedule_route_rejected(self, engine):
        """A hand-built Schedule op routed over a link the topology lacks
        raises ValueError naming the op and the link, on every engine and
        in compile_schedule, instead of a bare KeyError."""
        from fractions import Fraction

        from repro.collectives.schedule import (
            ChunkRange,
            CommOp,
            OpKind,
            Schedule,
        )

        topo = Torus2D(4, 4)
        whole = ChunkRange(Fraction(0), Fraction(1))
        schedule = Schedule(
            topology=topo,
            ops=[
                CommOp(OpKind.REDUCE, 1, 0, whole, step=1),
                CommOp(OpKind.GATHER, 1, 0, whole, step=2,
                       route=((1, 5), (5, 0))),
            ],
            algorithm="hand-built",
        )
        with pytest.raises(ValueError, match=r"op 1 .*\(5, 0\)"):
            if engine == "compile":
                compile_schedule(schedule)
            else:
                simulate_allreduce(schedule, 1 * MiB, engine=engine)

    def test_compiled_step_overlap_counted(self):
        """The compiled path records its step-loop decline like the
        simulator does."""
        topo = Torus2D(4, 4)
        compiled = compile_schedule(build_schedule("dbtree", topo))
        with collecting() as registry:
            compiled.simulate(MiB, engine="lockstep")
        assert registry.counter_value(
            "sim.fallbacks", engine="lockstep", reason="step-overlap",
            topology=topo.name,
        ) == 1


def assert_trace_parity(algorithm, size, lockstep):
    """A recorder observes the same hops and completions from the lockstep
    engine as from the event engine, whichever loop answers, and each
    completion carries the result's own timing."""
    from repro.trace import Trace

    topo = Torus2D(4, 4)
    schedule = build_schedule(algorithm, topo)
    rec_event = Trace()
    rec_lock = Trace()
    event = simulate_allreduce(
        schedule, size, lockstep=lockstep, recorder=rec_event
    )
    lock = simulate_allreduce(
        schedule, size, lockstep=lockstep, recorder=rec_lock,
        engine="lockstep",
    )
    assert_identical(event.simulation, lock.simulation)
    key = lambda e: (e.message, e.link, e.arrive, e.grant, e.serialization)
    assert sorted(map(key, rec_event.hops)) == sorted(map(key, rec_lock.hops))
    assert len(rec_event.hops) == sum(
        len(ev.route) for ev in rec_event.messages.values()
    )
    assert rec_event.messages.keys() == rec_lock.messages.keys()
    assert len(rec_event.messages) == len(event.simulation.timings)
    for rec, result in ((rec_event, event), (rec_lock, lock)):
        for idx, ev in rec.messages.items():
            timing = result.simulation.timings[idx]
            assert (ev.ready, ev.inject, ev.deliver, ev.ideal_deliver) == (
                timing.ready, timing.inject, timing.deliver,
                timing.ideal_deliver,
            )
    assert rec_event.gates == rec_lock.gates


class TestRecorderParity:
    def test_trace_identical_across_engines(self):
        assert_trace_parity("ring", 10 * MiB, lockstep=True)

    @pytest.mark.parametrize(
        "algorithm, lockstep",
        [
            ("dbtree", True),  # the step loop declines: step-overlap
            ("multitree", False),  # not lockstep-gated: heap only
        ],
    )
    def test_trace_identical_when_heap_answers(self, algorithm, lockstep):
        with collecting() as registry:
            assert_trace_parity(algorithm, MiB, lockstep)
        assert registry.counter_value(
            "sim.engine_runs", engine="event", topology="torus-4x4"
        ) == 2


class TestLinkTable:
    def test_memoized_per_topology(self):
        topo = Torus2D(4, 4)
        assert link_table(topo) is link_table(topo)
        assert link_table(topo) is not link_table(Torus2D(4, 4))

    def test_dense_ids_cover_all_links(self):
        topo = FatTree(4, 4)
        table = LinkTable(topo)
        assert len(table.keys) == len(topo.links)
        assert sorted(table.id_of.values()) == list(range(len(table.keys)))
        for key, lid in table.id_of.items():
            spec = topo.link(*key)
            assert table.bandwidth[lid] == spec.bandwidth
            assert table.latency[lid] == spec.latency
            assert table.capacity[lid] == spec.capacity
