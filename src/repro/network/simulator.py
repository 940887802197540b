"""Link-level interconnect simulator: the message model and its front end.

The simulator plays a set of point-to-point :class:`Message`\\ s over the
topology's links.  Each link is a set of ``capacity`` independently
grantable channels with FIFO arbitration; a message acquires the channels
along its route hop by hop in virtual-cut-through fashion (the head advances
one link latency per hop, each channel is held for the message's wire
serialization time).  Buffers are assumed deep enough to hold a per-step
chunk (the paper configures VC buffers to cover the credit round trip and
uses NI-side staging, Table III and footnote 4), so backpressure is not
modeled; contention appears as FIFO queueing delay at each channel.

Messages carry explicit dependency edges (receive-before-send, produced by
:mod:`repro.ni.injector` from the schedule tables) and an optional earliest
injection time (the lockstep gate of §IV-A).  :class:`NetworkSimulator`
lowers a message list to flat arrays once and hands it to the engines:
the vectorized :mod:`repro.network.lockstep_vec`, then the scalar core of
:mod:`repro.network.lockstep_engine` (its step loop, then its global
ready-time heap, which processes messages in time order so FIFO
arbitration between competing messages matches their actual readiness
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..metrics.registry import get_registry
from ..topology.base import LinkKey, Topology
from .flowcontrol import DEFAULT_FLOW_CONTROL, FlowControl
from .links import link_table

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..trace.events import TraceRecorder


@dataclass(slots=True)
class Message:
    """One transfer to simulate.

    ``deps`` are indices (into the message list) that must be *delivered*
    before this message may inject; ``not_before`` is an absolute earliest
    injection time (lockstep gate).

    Declared with ``slots=True``: simulations allocate one instance per
    scheduled op, so the per-instance ``__dict__`` is measurable overhead
    (guarded by a bit-identical-results test in ``tests/test_slots.py``).
    """

    src: int
    dst: int
    payload_bytes: float
    route: Sequence[LinkKey]
    deps: Sequence[int] = ()
    not_before: float = 0.0
    #: Extra latency between a dependency's delivery and this message
    #: becoming ready — models software scheduling/synchronization cost when
    #: the co-designed NI hardware (which makes this ~0) is absent (§VII-B).
    receive_overhead: float = 0.0
    tag: object = None


@dataclass(slots=True)
class MessageTiming:
    ready: float = 0.0
    inject: float = 0.0
    deliver: float = 0.0
    #: Delivery time the message would see on an idle network (ready +
    #: per-hop latencies + bottleneck serialization).
    ideal_deliver: float = 0.0

    @property
    def queue_delay(self) -> float:
        """Total time lost to contention anywhere along the path."""
        return self.deliver - self.ideal_deliver


@dataclass
class SimulationResult:
    finish_time: float
    timings: List[MessageTiming]
    link_busy: Dict[LinkKey, float]
    total_wire_bytes: float

    def max_queue_delay(self) -> float:
        return max((t.queue_delay for t in self.timings), default=0.0)

    def link_utilization(self, topology: Topology) -> Dict[LinkKey, float]:
        """Busy fraction per link over the whole run (per unit channel).

        Every link of ``topology`` appears in the result; links the run
        never touched report 0.0 utilization.  Heterogeneous fabrics need
        no special casing here: busy time is serialization time, which
        already embeds each link's own bandwidth, and the divisor is that
        link's channel capacity — a saturated quarter-rate uplink reads
        1.0 exactly like a saturated full-rate edge link.
        """
        busy_get = self.link_busy.get
        if self.finish_time <= 0:
            return {key: 0.0 for key in topology.links}
        return {
            key: busy_get(key, 0.0) / (self.finish_time * spec.capacity)
            for key, spec in topology.links.items()
        }

    def mean_link_utilization(self, topology: Topology) -> float:
        """Mean utilization over *all* links of the topology (idle included).

        On a heterogeneous fabric each channel's busy fraction is
        weighted by its link's bandwidth, so the mean reports the share
        of the fabric's deliverable bytes/s actually used — an idle
        quarter-rate uplink drags the mean four times less than an idle
        edge link.  Uniform fabrics (every link at one bandwidth) keep
        the historical unweighted formula bit for bit, which the
        weighting degenerates to exactly.
        """
        if self.finish_time <= 0:
            return 0.0
        bandwidths = {spec.bandwidth for spec in topology.links.values()}
        if len(bandwidths) <= 1:
            total_capacity_time = (
                self.finish_time * topology.total_link_capacity()
            )
            if total_capacity_time <= 0:
                return 0.0
            return sum(self.link_busy.values()) / total_capacity_time
        busy_get = self.link_busy.get
        weighted_busy = 0.0
        weighted_capacity = 0.0
        for key, spec in topology.links.items():
            weighted_busy += busy_get(key, 0.0) * spec.bandwidth
            weighted_capacity += spec.capacity * spec.bandwidth
        if weighted_capacity <= 0:
            return 0.0
        return weighted_busy / (self.finish_time * weighted_capacity)


class NetworkSimulator:
    """Plays messages over a topology under a flow-control model."""

    def __init__(
        self,
        topology: Topology,
        flow_control: FlowControl = DEFAULT_FLOW_CONTROL,
    ) -> None:
        self.topology = topology
        self.flow_control = flow_control

    def run(
        self,
        messages: List[Message],
        recorder: Optional["TraceRecorder"] = None,
        engine: str = "event",
    ) -> SimulationResult:
        """Simulate ``messages``; optionally report events to ``recorder``.

        The recorder observes hop grants and message completions as they
        are computed (see :mod:`repro.trace`); it never alters the
        simulation — results are bit-identical with and without one.

        ``messages`` are lowered to flat arrays once
        (:func:`repro.network.lockstep_engine.lower_messages`); a route
        over a link the topology does not declare raises ``ValueError``
        on every engine.  ``engine`` selects where the ladder starts:

        * ``"event"`` (default) — the global ready-time heap
          (:func:`repro.network.lockstep_engine.run_indexed`); works for
          any dependency DAG and is the semantic reference.
        * ``"lockstep"`` — the step loop
          (:func:`repro.network.lockstep_engine.run_grouped`), which
          exploits lockstep gating to resolve whole steps at a time.
          Results are bit-identical to the heap; when the message set is
          not lockstep-gated (or deliveries overrun a later gate enough
          to reorder processing across steps) the heap answers instead,
          and ``sim.fallbacks{engine=lockstep}`` records why.
        * ``"lockstep-vec"`` — the numpy-vectorized engine of
          :mod:`repro.network.lockstep_vec`, which resolves each step's
          per-link FIFO pass with array ops.  Results are bit-identical
          when the engine accepts the message set (link-disjoint steps,
          clean gate boundaries); otherwise it declines and the run falls
          down the ladder to ``"lockstep"`` and then ``"event"``, with
          each decline recorded once with its reason
          (``sim.fallbacks{engine, reason, topology}``), never silent.

        ``sim.engine_runs{engine=...}`` records the rung that answered.
        """
        if engine not in ("event", "lockstep", "lockstep-vec"):
            raise ValueError(
                "unknown engine %r (choose: event, lockstep, lockstep-vec)"
                % (engine,)
            )
        with obs.span(
            "sim.run",
            topology=self.topology.name,
            engine=engine,
            messages=len(messages),
        ) as run_span:
            result, resolved = self._run_ladder(messages, recorder, engine)
            run_span.set("resolved", resolved)
            run_span.set("finish_time", result.finish_time)
            return result

    def _run_ladder(
        self,
        messages: List[Message],
        recorder: Optional["TraceRecorder"],
        engine: str,
    ) -> Tuple[SimulationResult, str]:
        """Walk the engine fallback ladder; returns (result, engine used)."""
        from .lockstep_engine import lower_messages, run_lowered

        topo = self.topology.name
        table = link_table(self.topology)
        lowering = lower_messages(table, messages)
        registry = get_registry()
        result = None
        if engine == "lockstep-vec":
            from .lockstep_vec import run_lockstep_vec

            with obs.span("engine.lockstep-vec", topology=topo) as rung:
                result = run_lockstep_vec(
                    self.topology, self.flow_control, messages, recorder,
                    lowering,
                )
                rung.set("accepted", result is not None)
            resolved = "lockstep-vec"
            if result is None:
                engine = "lockstep"  # next rung of the fallback ladder
        if result is None:
            groups = None
            if engine == "lockstep":
                groups = lowering.groups
                if groups is None:
                    obs.record_fallback(
                        "lockstep", "not-lockstep-gated", topology=topo
                    )
            result, resolved = run_lowered(
                table, self.flow_control, lowering, groups, recorder,
                messages, topo,
            )
        if registry is not None:
            registry.counter(
                "sim.engine_runs", engine=resolved, topology=topo
            ).inc()
            self._record_metrics(registry, messages, result)
        return result, resolved

    def _record_metrics(
        self,
        registry,
        messages: List[Message],
        result: SimulationResult,
    ) -> None:
        """Fold one finished run into the ambient metrics registry.

        Runs strictly after the event loop, on already-computed values, so
        collection cannot perturb simulated timings.
        """
        topo_label = self.topology.name
        fc = self.flow_control
        labels = {"topology": topo_label, "flow": fc.name}
        registry.counter("sim.runs", **labels).inc()
        registry.counter("sim.messages", **labels).inc(len(messages))
        registry.counter("sim.wire_bytes", **labels).inc(result.total_wire_bytes)
        registry.counter("sim.link_busy_time", **labels).inc(
            sum(result.link_busy.values())
        )
        registry.gauge("sim.finish_time", **labels).set(result.finish_time)
        queue_hist = registry.histogram("sim.queue_delay", **labels)
        queue_total = 0.0
        for timing in result.timings:
            delay = timing.queue_delay
            if delay > 0:
                queue_hist.observe(delay)
                queue_total += delay
        registry.counter("sim.queue_delay_time", **labels).inc(queue_total)
        # Head-flit (framing) overhead actually put on wires: per distinct
        # payload, overhead bytes x the number of hops that carried it.
        hops_by_payload: Dict[float, int] = {}
        for msg in messages:
            if msg.route:
                hops_by_payload[msg.payload_bytes] = (
                    hops_by_payload.get(msg.payload_bytes, 0) + len(msg.route)
                )
        overhead = sum(
            fc.overhead_bytes(payload) * hops
            for payload, hops in hops_by_payload.items()
        )
        registry.counter("fc.overhead_bytes", flow=fc.name,
                         topology=topo_label).inc(overhead)
