"""Vectorized lockstep engine: numpy array ops over the CSR arrays.

The scalar engine in :mod:`repro.network.lockstep_engine` already walks
lockstep-gated message sets step by step over flat CSR arrays, but still
visits every message (and every hop) in a Python loop.  This engine
resolves each step's per-link FIFO pass with array operations instead:
one numpy call sequence per step (per *hop position* on multi-hop
routes), vectorized over the step's messages — and, in batched mode,
over a trailing **size axis**, so one compiled schedule is evaluated for
an entire ``LO..HI`` doubling range of payload sizes in a single pass
(:func:`run_batch`).

One planner serves every input.  Compiled schedules store their ops
sorted by step, so each step is a contiguous row range of the columns,
whatever their storage (lists, numpy arrays, lazy artifact shards);
message lists built from a schedule keep that order in their gate
groups.  :class:`RangePlan` validates and memoizes the ranges once per
schedule and :func:`run_range_plan` walks them.

**Exactness contract.**  The scalar lockstep engine is the oracle: when
this engine accepts a run, every computed time is produced by the same
sequence of IEEE-754 operations and the results are exactly ``==`` —
bit-identical, not merely close.  That is possible because of three
structural facts, each *verified* (not assumed) per run:

* **Link-disjoint steps.**  When every link carries at most one message
  per step, the per-link FIFO state (``avail``/``busy``) has disjoint
  read/write sets within the step, so the scalar engine's within-step
  processing order cannot influence any computed value and the hop pass
  vectorizes safely.  The check is payload-independent, so the compiled
  path pays it once per schedule (memoized in the :class:`RangePlan`).
* **Clean gate boundaries.**  The scalar engine orders each step by the
  event heap's ``(ready, push_seq)`` key and declines when a step's
  earliest message sorts before the previous step's latest.  This engine
  checks ``min(ready)`` of each step against ``max(ready)`` of the
  previous one — per size column — and conservatively declines ties too
  (the scalar engine would consult push sequence numbers; replaying
  those is exactly the per-message loop being eliminated).
* **Exact wire totals.**  ``total_wire_bytes`` is a float accumulation
  in processing order.  Both stock flow-control models put an integral
  number of bytes on the wire, and summing nonnegative integers in
  float64 is order-independent while the total stays below 2**53 — so
  the engine computes the exact integer total and declines sizes where
  that argument does not hold (non-integral wire sizes, overflow).

When any check fails the engine declines — ``None`` from
:func:`run_lockstep_vec`, a per-size scalar fallback in
:func:`run_batch` — and records the failed gate once per decline
(``sim.fallbacks{engine=lockstep-vec, reason=...}``); results are never
silently approximate.  Multi-channel links (``capacity > 1``) also
decline: their argmin channel selection is inherently order-dependent,
and the scalar ladder handles them exactly.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..metrics.registry import get_registry
from .links import LinkTable, link_table
from .lockstep_engine import (
    LazyTimings,
    Lowering,
    dep_structure,
    lower_messages,
)
from .simulator import Message, SimulationResult

#: Largest float64 integer range where ``a + b`` is exact for nonnegative
#: integer-valued operands — the bound for order-independent wire totals.
_MAX_EXACT = float(2 ** 53)


class RangePlan:
    """Payload-independent vectorization plan over contiguous step ranges.

    Every compiled schedule stores its ops sorted by step, and a
    lockstep-gated message list built from one keeps that order, so each
    lockstep group is a contiguous index range ``[lo, hi)`` and all of
    its hops are the slice ``link_ids[route_off[lo]:route_off[hi]]``.
    Per-step inputs of the runner are therefore **views** of the
    columns: a range whose routes are all one hop materializes no index
    arrays at all, which keeps an 8k-node schedule (134M ops) inside the
    scale-out memory envelope.  Ranges with longer routes (indirect
    fabrics) get one memoized ``(rows, link_ids)`` selector per hop
    position, built here once and reused by every run of the plan.

    ``ok`` is False when some range is not link-disjoint, touches a
    multi-channel link, or the layout is not range-plannable (columns
    not sorted by step, a dependency that does not point into an earlier
    range); ``reason`` names the gate, and the caller falls back to the
    scalar ladder, which is always exact.
    """

    __slots__ = ("ok", "reason", "ranges", "route_off", "link_ids",
                 "dep_off", "dep_val")

    def __init__(
        self,
        bounds: Optional[Sequence[Tuple[int, int]]],
        route_off: np.ndarray,
        link_ids: np.ndarray,
        dep_off: np.ndarray,
        dep_val: np.ndarray,
        capacity: np.ndarray,
    ) -> None:
        self.route_off = route_off
        self.link_ids = link_ids
        self.dep_off = dep_off
        self.dep_val = dep_val
        #: ``(lo, hi, hops)`` per non-empty step; ``hops`` is ``None``
        #: when every route of the range is exactly one hop.
        self.ranges: List[Tuple[int, int, Optional[list]]] = []
        self.ok = False
        #: The validation gate that failed when ``ok`` is False — the
        #: structured fallback reason reported instead of a bare count.
        self.reason: Optional[str] = "plan" if bounds is None else None
        for lo, hi in bounds or ():
            r0 = int(route_off[lo])
            r1 = int(route_off[hi])
            li = link_ids[r0:r1]
            # Link-disjointness across the whole step (all hop positions
            # of all messages): any repeated dense link id means FIFO
            # state interacts within the step and order matters.
            if len(np.unique(li)) != r1 - r0:
                self.reason = "link-disjointness"
                return
            if (capacity[li] != 1).any():
                self.reason = "multi-channel"  # argmin channel pools
                return
            dv = dep_val[dep_off[lo]:dep_off[hi]]
            if len(dv) and int(dv.max()) >= lo:
                # The pull-model wake in run_range_plan reads delivery
                # times of earlier ranges only.
                self.reason = "plan"
                return
            rlen = np.diff(route_off[lo:hi + 1])
            hops = None
            if (rlen != 1).any():
                starts = route_off[lo:hi]
                hops = []
                for h in range(int(rlen.max())):
                    sel = np.flatnonzero(rlen > h)
                    hops.append((sel, link_ids[starts[sel] + h]))
            self.ranges.append((lo, hi, hops))
        self.ok = self.reason is None

    def class_hops(self, frac_idx: np.ndarray, num_classes: int) -> np.ndarray:
        """Total hop count per wire class."""
        if frac_idx.strides == (0,) and len(frac_idx):
            out = np.zeros(num_classes, dtype=np.float64)
            out[int(frac_idx[0])] = float(self.route_off[-1])
            return out
        return np.bincount(
            frac_idx, weights=np.diff(self.route_off), minlength=num_classes
        )


def run_range_plan(
    plan: RangePlan,
    table: LinkTable,
    wire_table: np.ndarray,
    wire_idx: np.ndarray,
    ready: np.ndarray,
    overhead: np.ndarray,
    keep_timings: bool,
):
    """The vectorized step loop over a prepared plan.

    ``wire_table`` is the ``(num_wire_classes, num_sizes)`` float64 table
    of on-wire byte counts and ``wire_idx`` maps each message to its row
    (messages sharing a chunk fraction share a row).  ``ready`` is the
    ``(num_messages, num_sizes)`` gate matrix — mutated in place into the
    final per-message ready times.  ``overhead`` is the per-message
    receive overhead.

    Dependencies wake by *pull*: each range first raises its rows' ready
    times to the segmented maximum of their dependencies' delivery times
    plus overhead.  Rounding is monotonic, so ``max(a, b) + o`` equals
    the scalar engine's ``max(a + o, b + o)`` exactly.  With
    ``keep_timings`` off, one ``(num_messages, sizes)`` matrix carries
    ready-then-delivery values in place — the dominant allocation at
    8k-node scale.

    Returns ``(valid, finish, busy, qmax, timings)`` where ``valid`` is
    the per-size acceptance mask (sizes failing a gate-boundary check
    carry garbage in the other outputs and must fall back to the scalar
    engine), ``busy`` is the ``(num_links, num_sizes)`` per-link busy
    matrix, ``qmax`` the per-size max queueing delay, and ``timings`` the
    ``(inject, deliver, ideal)`` matrices when ``keep_timings`` else
    ``None``.
    """
    n, num_sizes = ready.shape
    bw, lat, _cap = table.arrays()
    avail = np.zeros((len(bw), num_sizes), dtype=np.float64)
    busy = np.zeros_like(avail)
    finish = np.zeros(num_sizes, dtype=np.float64)
    qmax = np.full(num_sizes, -np.inf, dtype=np.float64)
    valid = np.ones(num_sizes, dtype=bool)
    prev_max = np.full(num_sizes, -np.inf, dtype=np.float64)
    dep_off = plan.dep_off
    dep_val = plan.dep_val
    route_off = plan.route_off
    link_ids = plan.link_ids
    if keep_timings:
        deliver_all = np.zeros((n, num_sizes), dtype=np.float64)
        inject_m = np.zeros((n, num_sizes), dtype=np.float64)
        ideal_m = np.zeros((n, num_sizes), dtype=np.float64)
    else:
        deliver_all = ready  # rows become delivery times once processed

    for lo, hi, hops in plan.ranges:
        # Dependency wake-up (pull model): row i's ready time is the max
        # of its gate and its deps' delivery times plus overhead.
        d0 = int(dep_off[lo])
        d1 = int(dep_off[hi])
        if d1 > d0:
            seg = dep_off[lo:hi].astype(np.intp) - d0
            counts = np.diff(np.append(seg, d1 - d0))
            gathered = deliver_all[dep_val[d0:d1]]
            has = counts > 0
            red = np.maximum.reduceat(
                gathered, np.minimum(seg, d1 - d0 - 1)
            )
            rows = lo + np.flatnonzero(has)
            wake = red[has] + overhead[lo:hi][has][:, None]
            ready[rows] = np.maximum(ready[rows], wake)
        rd = ready[lo:hi]
        # Gate-boundary verification, per size: the scalar engine declines
        # when a step's earliest (ready, push_seq) sorts at or before the
        # previous step's latest; without push sequences, ties decline too.
        valid &= rd.min(axis=0) > prev_max
        prev_max = rd.max(axis=0)

        wire_rows = wire_table[wire_idx[lo:hi]]
        if hops is None:
            li = link_ids[route_off[lo]:route_off[hi]]
            link_lat = lat[li][:, None]
            ser = wire_rows / bw[li][:, None]
            inject = np.maximum(rd, avail[li])
            avail[li] = inject + ser
            busy[li] += ser
            deliver = inject + link_lat + ser
            ideal = rd + link_lat + ser
        else:
            head = rd.copy()
            inject = rd.copy()      # zero-hop messages inject at ready
            cur_ser = np.zeros((hi - lo, num_sizes), dtype=np.float64)
            max_ser = np.zeros((hi - lo, num_sizes), dtype=np.float64)
            lat_sum = np.zeros(hi - lo, dtype=np.float64)
            for h, (sel, li) in enumerate(hops):
                ser = wire_rows[sel] / bw[li][:, None]
                grant = np.maximum(head[sel], avail[li])
                avail[li] = grant + ser
                busy[li] += ser
                if h == 0:
                    inject[sel] = grant
                head[sel] = grant + lat[li][:, None]
                lat_sum[sel] += lat[li]
                max_ser[sel] = np.maximum(max_ser[sel], ser)
                cur_ser[sel] = ser
            deliver = head + cur_ser
            ideal = rd + lat_sum[:, None] + max_ser
        finish = np.maximum(finish, deliver.max(axis=0))
        qmax = np.maximum(qmax, (deliver - ideal).max(axis=0))
        deliver_all[lo:hi] = deliver
        if keep_timings:
            inject_m[lo:hi] = inject
            ideal_m[lo:hi] = ideal

    timings = (
        (inject_m, deliver_all, ideal_m) if keep_timings else None
    )
    return valid, finish, busy, qmax, timings


def wire_classes(
    flow_control, payload_table: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """On-wire byte counts for a ``(classes, sizes)`` payload table.

    Returns ``(wire, exact)``: the float64 wire table and a per-size
    boolean mask marking sizes whose wire counts are all integral (the
    precondition of the order-independent total, see module docstring).
    """
    wire_bytes = flow_control.wire_bytes
    classes, num_sizes = payload_table.shape
    wire = np.empty((classes, num_sizes), dtype=np.float64)
    exact = np.ones(num_sizes, dtype=bool)
    for f in range(classes):
        for j in range(num_sizes):
            w = wire_bytes(float(payload_table[f, j]))
            wire[f, j] = w
            if not float(w).is_integer():
                exact[j] = False
    return wire, exact


def exact_wire_totals(
    wire: np.ndarray, exact: np.ndarray, hops_per_class: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-size ``total_wire_bytes`` via exact integer arithmetic.

    Sizes whose total reaches 2**53 (where float accumulation order
    would start to matter) are marked inexact; callers fall back.
    """
    classes, num_sizes = wire.shape
    totals = np.zeros(num_sizes, dtype=np.float64)
    ok = exact.copy()
    hops = [int(h) for h in hops_per_class]
    for j in range(num_sizes):
        if not ok[j]:
            continue
        total = 0
        for f in range(classes):
            total += int(wire[f, j]) * hops[f]
        if total >= _MAX_EXACT:
            ok[j] = False
        else:
            totals[j] = float(total)
    return totals, ok


def _column_result(
    table: LinkTable,
    ready: np.ndarray,
    timings,
    finish: np.ndarray,
    busy: np.ndarray,
    totals: np.ndarray,
    j: int,
) -> SimulationResult:
    """Materialize one size column as a scalar-identical result."""
    inject_m, deliver_m, ideal_m = timings
    keys = table.keys
    col = busy[:, j]
    link_busy = {keys[li]: col[li].item() for li in np.flatnonzero(col != 0.0)}
    return SimulationResult(
        finish_time=finish[j].item(),
        timings=LazyTimings(
            ready[:, j].tolist(),
            inject_m[:, j].tolist(),
            deliver_m[:, j].tolist(),
            ideal_m[:, j].tolist(),
        ),
        link_busy=link_busy,
        total_wire_bytes=totals[j].item(),
    )


class BatchPoint:
    """One size's outcome of a batched evaluation."""

    __slots__ = ("data_bytes", "time", "bandwidth", "max_queue_delay",
                 "engine", "reason")

    def __init__(self, data_bytes, time, bandwidth, max_queue_delay, engine,
                 reason=None):
        self.data_bytes = data_bytes
        self.time = time
        self.bandwidth = bandwidth
        self.max_queue_delay = max_queue_delay
        #: ``"lockstep-vec"`` or the scalar engine this size fell back to.
        self.engine = engine
        #: The validation gate that declined this size (``None`` when the
        #: vectorized engine produced the point).
        self.reason = reason


class BatchResult:
    """Outcome of :func:`run_batch`: per-size points plus fallback count."""

    __slots__ = ("sizes", "points", "fallbacks", "results")

    def __init__(self, sizes, points, fallbacks, results=None):
        self.sizes = tuple(sizes)
        self.points = points
        #: Number of sizes that fell back to the scalar lockstep ladder.
        self.fallbacks = fallbacks
        #: Per-size :class:`repro.ni.injector.AllReduceResult` objects
        #: when the batch ran with ``keep_timings`` (else ``None``).
        self.results = results


def run_batch(
    compiled,
    sizes: Sequence[int],
    flow_control=None,
    lockstep: bool = True,
    scheduling_overhead: float = 0.0,
    keep_timings: bool = False,
) -> BatchResult:
    """Evaluate one compiled schedule at every payload size in one pass.

    The batched counterpart of
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`: the
    step/route/dependency structure is shared across sizes, so the
    vectorized engine carries a trailing size axis through the grant/
    injection/delivery arithmetic instead of re-walking the schedule per
    size.  Sizes the vectorized engine cannot prove exact fall back to
    the scalar engine ladder individually — each :class:`BatchPoint`
    records the engine that produced it and the gate that declined it,
    the count lands in ``BatchResult.fallbacks`` and one
    ``sim.fallbacks`` record per size, and every returned number is bit-identical to a scalar
    ``simulate(size, engine="lockstep")`` call either way.
    """
    with obs.span(
        "sim.batch",
        topology=compiled.topology.name,
        algorithm=getattr(compiled, "algorithm", None),
        sizes=len(tuple(sizes)),
    ) as sim_span:
        result = _run_batch(
            compiled, sizes, flow_control, lockstep, scheduling_overhead,
            keep_timings,
        )
        sim_span.set("fallbacks", result.fallbacks)
        return result


def _run_batch(
    compiled,
    sizes: Sequence[int],
    flow_control,
    lockstep: bool,
    scheduling_overhead: float,
    keep_timings: bool,
) -> BatchResult:
    from ..network.flowcontrol import DEFAULT_FLOW_CONTROL

    if flow_control is None:
        flow_control = DEFAULT_FLOW_CONTROL
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("run_batch needs at least one payload size")
    if any(size <= 0 for size in sizes):
        raise ValueError("data_bytes must be positive")

    plan = _compiled_plan(compiled) if lockstep else None
    num_sizes = len(sizes)
    valid = np.zeros(num_sizes, dtype=bool)
    gate_valid = exact_mask = None
    finish = busy = qmax = totals = ready = timings = None
    table = link_table(compiled.topology)

    # Why every size (or some sizes) left the vectorized engine: a
    # whole-batch decline reason, or per-size gate/wire masks below.
    if plan is None:
        decline_reason: Optional[str] = "not-lockstep-gated"
    else:
        decline_reason = plan.reason

    if decline_reason is None:
        frac_uniq, frac_idx = compiled.frac_classes()
        sizes_arr = np.asarray(sizes, dtype=np.float64)
        # frac * data_bytes: the same IEEE multiply the scalar path does.
        payload_table = frac_uniq[:, None] * sizes_arr[None, :]
        wire, exact = wire_classes(flow_control, payload_table)
        hops_per_class = plan.class_hops(frac_idx, len(frac_uniq))
        totals, exact = exact_wire_totals(wire, exact, hops_per_class)
        # Per-size lockstep gates, by the same scalar arithmetic the
        # injector uses; assembled into the (num_messages, sizes) matrix.
        gate_mat = np.zeros((compiled.num_steps + 1, num_sizes))
        for j, size in enumerate(sizes):
            for step, gate in compiled.step_gates(size, flow_control).items():
                gate_mat[step, j] = gate
        steps_arr = np.asarray(compiled.steps)
        ready = gate_mat[steps_arr]
        # Read-only broadcast: at 8k-node scale a materialized per-op
        # overhead vector is pure waste (the value is one scalar).
        overhead = np.broadcast_to(
            np.float64(scheduling_overhead), (len(steps_arr),)
        )
        valid, finish, busy, qmax, timings = run_range_plan(
            plan, table, wire, frac_idx, ready, overhead,
            keep_timings=keep_timings,
        )
        gate_valid = valid.copy()
        exact_mask = exact
        valid = valid & exact

    points: List[Optional[BatchPoint]] = []
    results: List[object] = []
    fallbacks = 0
    registry = get_registry()
    topo = compiled.topology.name
    for j, size in enumerate(sizes):
        if valid[j]:
            time = finish[j].item()
            point = BatchPoint(
                data_bytes=size,
                time=time,
                bandwidth=size / time if time > 0 else float("inf"),
                max_queue_delay=(
                    qmax[j].item() if np.isfinite(qmax[j]) else 0.0
                ),
                engine="lockstep-vec",
            )
            if keep_timings:
                from ..ni.injector import AllReduceResult

                results.append(AllReduceResult(
                    compiled, size,
                    _column_result(table, ready, timings, finish, busy,
                                   totals, j),
                ))
        else:
            fallbacks += 1
            if decline_reason is not None:
                reason = decline_reason
            elif gate_valid is not None and not gate_valid[j]:
                reason = "gate-boundary"
            elif exact_mask is not None and not exact_mask[j]:
                reason = "wire-total"
            else:
                reason = "plan"
            obs.record_fallback(
                "lockstep-vec", reason, topology=topo, size=size
            )
            outcome = compiled.simulate(
                size, flow_control, lockstep, scheduling_overhead,
                engine="lockstep",
            )
            point = BatchPoint(
                data_bytes=size,
                time=outcome.time,
                bandwidth=outcome.bandwidth,
                max_queue_delay=outcome.max_queue_delay(),
                engine="lockstep",
                reason=reason,
            )
            if keep_timings:
                results.append(outcome)
        points.append(point)

    ran = num_sizes - fallbacks
    if registry is not None and ran:
        registry.counter(
            "sim.engine_runs", engine="lockstep-vec", topology=topo
        ).inc(ran)
    return BatchResult(
        sizes, points, fallbacks, results if keep_timings else None
    )


def _int_column(col) -> np.ndarray:
    """A compiled column as an integer array (no copy when it is one)."""
    arr = np.asarray(col)
    return arr if arr.dtype.kind in "iu" else arr.astype(np.intp)


def _step_bounds(steps: np.ndarray, num_steps: int):
    """``[lo, hi)`` row range per non-empty step, or ``None`` if unsorted."""
    bounds = np.searchsorted(steps, np.arange(1, num_steps + 2), side="left")
    if int(bounds[0]) != 0 or int(bounds[-1]) != len(steps):
        return None
    ranges = []
    for step in range(1, num_steps + 1):
        lo = int(bounds[step - 1])
        hi = int(bounds[step])
        if lo == hi:
            continue
        if (steps[lo:hi] != step).any():
            return None
        ranges.append((lo, hi))
    return ranges


def _compiled_plan(compiled) -> RangePlan:
    """The memoized :class:`RangePlan` of a compiled schedule.

    Built from the columns as stored — plain lists from
    :func:`repro.collectives.compiled.compile_schedule`, numpy arrays
    from the streaming compiler, lazy shard columns from an artifact —
    and identical for all of them.
    """
    plan = compiled._vec_plan
    if plan is None:
        table = link_table(compiled.topology)
        remap = np.asarray(
            [table.id_of[key] for key in compiled.links], dtype=np.intp
        )
        plan = compiled._vec_plan = RangePlan(
            _step_bounds(_int_column(compiled.steps), compiled.num_steps),
            _int_column(compiled.route_off),
            remap[_int_column(compiled.route_val)],
            _int_column(compiled.dep_off),
            _int_column(compiled.dep_val),
            table.arrays()[2],
        )
    return plan


def _message_plan(lowering: Lowering, table: LinkTable) -> RangePlan:
    """The :class:`RangePlan` of a lockstep-gated message lowering.

    The gate groups are contiguous index ranges for every message list
    built from a schedule; any other order declines with ``plan``.
    """
    groups = lowering.groups
    n = len(lowering.payloads)
    order = np.fromiter(chain.from_iterable(groups), np.intp)
    bounds = None
    if np.array_equal(order, np.arange(n)):
        ends = np.cumsum([len(group) for group in groups]).tolist()
        bounds = [(lo, hi) for lo, hi in zip([0] + ends[:-1], ends) if hi > lo]
    # Inverting the dependents CSR gives each message's own dependencies.
    dd_off, dd_val, _counts = lowering.dep_struct
    dep_off, dep_val, _ = dep_structure(dd_off, dd_val)
    return RangePlan(
        bounds,
        np.asarray(lowering.route_off, dtype=np.intp),
        np.asarray(lowering.route_val, dtype=np.intp),
        np.asarray(dep_off, dtype=np.intp),
        np.asarray(dep_val, dtype=np.intp),
        table.arrays()[2],
    )


def run_lockstep_vec(
    topology,
    flow_control,
    messages: List[Message],
    recorder=None,
    lowering: Optional[Lowering] = None,
) -> Optional[SimulationResult]:
    """Vectorized simulation of raw messages; ``None`` means fall back.

    Accepts the lockstep-gated shape of
    :func:`repro.network.lockstep_engine.lower_messages` (single-size: the
    batch axis has one column); pass that ``lowering`` when the caller
    already holds it.  A ``recorder`` declines immediately — trace
    callbacks are inherently per-message, and the scalar ladder records
    identically.
    """
    topo = getattr(topology, "name", None)
    if recorder is not None:
        obs.record_fallback("lockstep-vec", "recorder", topology=topo)
        return None
    table = link_table(topology)
    if lowering is None:
        lowering = lower_messages(table, messages)
    if lowering.groups is None:
        obs.record_fallback(
            "lockstep-vec", "not-lockstep-gated", topology=topo
        )
        return None
    plan = _message_plan(lowering, table)
    if not plan.ok:
        obs.record_fallback("lockstep-vec", plan.reason, topology=topo)
        return None

    payloads = np.asarray(lowering.payloads, dtype=np.float64)
    uniq, wire_idx = np.unique(payloads, return_inverse=True)
    wire, exact = wire_classes(flow_control, uniq[:, None])
    totals, exact = exact_wire_totals(
        wire, exact, plan.class_hops(wire_idx, len(uniq))
    )
    if not exact[0]:
        obs.record_fallback("lockstep-vec", "wire-total", topology=topo)
        return None
    ready = np.asarray(lowering.not_before, dtype=np.float64)[:, None]
    overhead = np.asarray(lowering.receive_overhead, dtype=np.float64)
    valid, finish, busy, qmax, timings = run_range_plan(
        plan, table, wire, wire_idx.astype(np.intp), ready, overhead,
        keep_timings=True,
    )
    if not valid[0]:
        obs.record_fallback("lockstep-vec", "gate-boundary", topology=topo)
        return None
    return _column_result(table, ready, timings, finish, busy, totals, 0)
