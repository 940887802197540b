"""The scalar simulation core: one heap loop, one step loop, one entry.

Every scalar simulation — :meth:`repro.network.simulator.NetworkSimulator.run`
on ``Message`` lists and
:meth:`repro.collectives.compiled.CompiledSchedule.simulate` on compiled
arrays — goes through :func:`run_lowered`:

* :func:`run_indexed` — the global ``(ready, push_seq)`` heap.  It
  resolves one message at a time and FIFO channels grant in pop order.
  It works for any dependency DAG, never declines, and is the
  ``engine="event"`` semantics.
* :func:`run_grouped` — the step loop for *lockstep-gated* message sets
  (§IV-A), where every dependency crosses a step boundary and the gates
  order the steps in time.  It walks the steps in gate order and resolves
  each step's messages in one sorted pass, skipping the heap.

:func:`lower_messages` turns a ``Message`` list into the arrays both
loops read; the compiled path builds the same arrays from its columns.

**Array-based hot state.**  Both loops consume the per-message state as
flat parallel arrays in CSR form: routes are ``(route_off, route_val)``
offset/value lists of dense link ids, and the dependency graph is the
:func:`dep_structure` triple.  Beyond avoiding per-hop dictionary
lookups, the flat layout matters for sustained throughput: a 1024-node
lowering holds millions of messages, and representing their
routes/dependencies as millions of small lists makes every cyclic-GC
generation scan traverse them all — measured as a multi-x slowdown on
repeated large simulations.  A handful of flat lists of ints is invisible
to the collector.

**Exact equivalence.**  The heap's outcome is fully determined by the
order messages are *processed* — it pops ``(ready, push_seq)`` pairs,
and FIFO channel grants follow that order.  The step loop reproduces
that order exactly: it replays the heap's push-sequence numbering
(initial pushes in message-index order, then wake-ups in processing
order), sorts each step's messages by the same ``(ready, push_seq)`` key,
and verifies at every step boundary that the per-step order is
consistent with the global one.  Whenever the verification holds, every
computed time — grant, injection, delivery, idle-network ideal — is
produced by the identical sequence of floating-point operations, so
results are bit-identical to the heap, not merely close.  Both loops
return raw arrays and :func:`_result_from_arrays` builds every
:class:`SimulationResult`, so ``link_busy`` (and any float summed over
it) is the same on every engine.

**Fallback.**  When deliveries overrun a later step's gate enough to
reorder processing across steps, :func:`run_grouped` returns ``None``
and :func:`run_lowered` records a ``step-overlap`` fallback and runs the
heap on the same arrays.  A ``Message`` list that is not lockstep-gated
(no step gates, or intra-step dependencies) has no groups and goes to
the heap directly.
"""

from __future__ import annotations

import heapq
from itertools import accumulate, chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .flowcontrol import FlowControl
from .links import LinkTable, link_table
from .simulator import Message, MessageTiming, SimulationResult

__all__ = [
    "DepStructure",
    "LazyTimings",
    "LinkTable",
    "Lowering",
    "dep_structure",
    "link_table",
    "lower_messages",
    "run_grouped",
    "run_indexed",
    "run_lowered",
]

#: ``(dependents_off, dependents_val, dep_counts)`` — CSR adjacency of
#: "who waits on message i" plus the per-message unresolved-dependency
#: counts.  See :func:`dep_structure`.
DepStructure = Tuple[List[int], List[int], List[int]]


class Lowering(NamedTuple):
    """The per-message arrays both scalar loops read.

    The first six fields are the positional tail of :func:`run_indexed`
    (and of :func:`run_grouped` after its ``groups``), in that order.
    ``groups`` lists message indices per lockstep gate, ascending, or is
    ``None`` when the set is not lockstep-gated.
    """

    payloads: Sequence[float]
    route_off: Sequence[int]
    route_val: Sequence[int]
    dep_struct: DepStructure
    not_before: Sequence[float]
    receive_overhead: Sequence[float]
    groups: Optional[List[List[int]]]


def dep_structure(dep_off: Sequence[int], dep_val: Sequence[int]) -> DepStructure:
    """Dependents-CSR + dependency counts for a CSR dependency list.

    ``dependents_val[dependents_off[i]:dependents_off[i+1]]`` lists the
    messages waiting on message ``i``, in message-index order — the order
    the heap wakes them in.  Everything here depends only on the
    lowering, not the payload, so the compiled artifact path memoizes the
    triple across simulations (see
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`).  The
    counts list is never mutated by the engines; they copy it per run.
    """
    counts = np.diff(np.asarray(dep_off, dtype=np.intp))
    n = len(counts)
    deps = np.asarray(dep_val, dtype=np.intp)
    owner = np.repeat(np.arange(n, dtype=np.intp), counts)
    # A stable sort by dependency keeps each message's dependents in
    # index order.
    dd_val = owner[np.argsort(deps, kind="stable")]
    dd_off = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(deps, minlength=n), out=dd_off[1:])
    return dd_off.tolist(), dd_val.tolist(), counts.tolist()


def _gate_groups(
    not_before: Sequence[float], dep_off: Sequence[int], dep_val: Sequence[int]
) -> Optional[List[List[int]]]:
    """Message indices per ``not_before`` gate, or ``None`` if not gated.

    The set is lockstep-gated when every dependency points into a
    strictly earlier gate group — the shape
    :func:`repro.ni.injector.build_messages` produces with
    ``lockstep=True``.
    """
    gates, group_of = np.unique(
        np.asarray(not_before, dtype=np.float64), return_inverse=True
    )
    deps = np.asarray(dep_val, dtype=np.intp)
    if (group_of[deps] >= np.repeat(group_of, np.diff(dep_off))).any():
        return None
    order = np.argsort(group_of, kind="stable")
    bounds = np.cumsum(np.bincount(group_of, minlength=len(gates)))[:-1]
    return [group.tolist() for group in np.split(order, bounds)]


def lower_messages(table: LinkTable, messages: Sequence[Message]) -> Lowering:
    """The :class:`Lowering` of a ``Message`` list over ``table``'s links.

    Raises ``ValueError`` naming the message and the link when a route
    uses a link the topology does not declare.
    """
    routes = [msg.route for msg in messages]
    try:
        route_val = list(
            map(table.id_of.__getitem__, chain.from_iterable(routes))
        )
    except KeyError as exc:
        link = exc.args[0]
        idx = next(i for i, route in enumerate(routes) if link in route)
        raise ValueError(
            "message %d routes over link %r, which the topology does not "
            "declare" % (idx, link)
        ) from None
    deps = [msg.deps for msg in messages]
    dep_off = np.zeros(len(deps) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, deps), np.intp, len(deps)), out=dep_off[1:])
    dep_val = np.fromiter(chain.from_iterable(deps), np.intp, dep_off[-1])
    not_before = [msg.not_before for msg in messages]
    return Lowering(
        [msg.payload_bytes for msg in messages],
        [0, *accumulate(map(len, routes))],
        route_val,
        dep_structure(dep_off, dep_val),
        not_before,
        [msg.receive_overhead for msg in messages],
        _gate_groups(not_before, dep_off, dep_val),
    )


class LazyTimings:
    """List-compatible view over the engines' parallel timing arrays.

    Materializing one :class:`MessageTiming` per message costs seconds at
    million-message scale and most callers (sweeps, benchmarks) only read
    ``finish_time`` — so the arrays are kept as-is and the object list is
    built on first access, then cached.  Equality, iteration, indexing,
    and ``len`` all behave like a plain ``MessageTiming`` list.
    """

    __slots__ = ("_ready", "_inject", "_deliver", "_ideal", "_list")

    def __init__(self, ready, inject, deliver, ideal) -> None:
        self._ready = ready
        self._inject = inject
        self._deliver = deliver
        self._ideal = ideal
        self._list: Optional[List[MessageTiming]] = None

    def _materialize(self) -> List[MessageTiming]:
        result = self._list
        if result is None:
            result = self._list = [
                MessageTiming(r, i, d, l)
                for r, i, d, l in zip(
                    self._ready, self._inject, self._deliver, self._ideal
                )
            ]
        return result

    def __len__(self) -> int:
        return len(self._ready)

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyTimings):
            other = other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return repr(self._materialize())


def run_grouped(
    table: LinkTable,
    flow_control: FlowControl,
    groups: Sequence[Sequence[int]],
    payloads: Sequence[float],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct: DepStructure,
    not_before: Sequence[float],
    receive_overhead: Sequence[float],
    recorder=None,
    messages: Optional[List[Message]] = None,
):
    """Step-level loop over pre-grouped message indices.

    ``groups`` lists message indices per lockstep group, in ascending gate
    order; every dependency must resolve in a strictly earlier group (the
    caller guarantees this — see :func:`lower_messages` and
    :meth:`repro.collectives.compiled.CompiledSchedule.simulate`).
    Routes arrive as CSR dense-link-id arrays and the dependency graph as
    a :func:`dep_structure` triple — both payload-independent, so repeat
    callers memoize them.

    Returns ``(finish, ready, inject, deliver, ideal, busy, total_wire)``
    arrays, or ``None`` when processing the groups in order would diverge
    from the heap's global ``(ready, push_seq)`` order — the caller must
    then run :func:`run_indexed` instead.

    ``recorder`` requires ``messages`` (the original message objects) so
    completion events carry the message itself.
    """
    n = len(payloads)
    num_links = len(table.keys)
    bandwidth = table.bandwidth
    latency = table.latency
    capacity = table.capacity
    keys = table.keys

    # Dependency bookkeeping — identical wake order to the heap's.
    dd_off, dd_val, dep_counts = dep_struct
    remaining = list(dep_counts)
    ready = list(not_before)

    # Replay of the event heap's push-sequence numbers: dependency-free
    # messages are "pushed" at init in index order, the rest as their last
    # dependency resolves (in processing order, below).
    push_seq = [0] * n
    seq = 0
    for idx in range(n):
        if remaining[idx] == 0:
            push_seq[idx] = seq
            seq += 1

    # Per-link FIFO state: capacity-1 links (the common case) use the flat
    # ``avail`` array; wider links lazily get a channel pool, matching the
    # heap's argmin channel selection.
    avail = [0.0] * num_links
    pools: Dict[int, List[float]] = {}
    busy = [0.0] * num_links
    inject = [0.0] * n
    deliver = [0.0] * n
    ideal = [0.0] * n
    wire_cache: Dict[float, float] = {}
    wire_bytes = flow_control.wire_bytes
    total_wire = 0.0
    finish = 0.0
    processed = 0
    last_ready = float("-inf")
    last_seq = -1

    for group in groups:
        if not group:
            continue
        entries = [(ready[idx], push_seq[idx], idx) for idx in group]
        entries.sort()
        first_ready, first_seq, _ = entries[0]
        if first_ready < last_ready or (
            first_ready == last_ready and first_seq < last_seq
        ):
            # A message of this group becomes ready before the previous
            # group finished injecting: the heap would interleave
            # the two steps, so step-level processing is not exact here.
            return None
        for rd, _sq, idx in entries:
            payload = payloads[idx]
            wire = wire_cache.get(payload)
            if wire is None:
                wire = wire_bytes(payload)
                wire_cache[payload] = wire
            r0 = route_off[idx]
            r1 = route_off[idx + 1]
            total_wire += wire * (r1 - r0)
            if r0 == r1:  # zero-hop (src == dst) — degenerate, instant
                inj = rd
                dlv = rd
                idl = rd
            else:
                head = rd
                inj = None
                ser = 0.0
                lat_sum = 0.0
                max_ser = 0.0
                for k in range(r0, r1):
                    li = route_val[k]
                    if capacity[li] == 1:
                        ch = 0
                        at = avail[li]
                        ser = wire / bandwidth[li]
                        grant = head if head >= at else at
                        avail[li] = grant + ser
                    else:
                        pool = pools.get(li)
                        if pool is None:
                            pool = pools[li] = [0.0] * capacity[li]
                        ch = min(range(len(pool)), key=pool.__getitem__)
                        at = pool[ch]
                        ser = wire / bandwidth[li]
                        grant = head if head >= at else at
                        pool[ch] = grant + ser
                    busy[li] += ser
                    if recorder is not None:
                        recorder.hop(idx, keys[li], ch, head, grant, ser)
                    if inj is None:
                        inj = grant
                    lat = latency[li]
                    head = grant + lat
                    lat_sum += lat
                    if ser > max_ser:
                        max_ser = ser
                dlv = head + ser
                idl = rd + lat_sum + max_ser
            inject[idx] = inj
            deliver[idx] = dlv
            ideal[idx] = idl
            if recorder is not None:
                recorder.message_done(
                    idx,
                    messages[idx],
                    MessageTiming(rd, inj, dlv, idl),
                    wire,
                )
            if dlv > finish:
                finish = dlv
            processed += 1

            for k in range(dd_off[idx], dd_off[idx + 1]):  # wake dependents
                dep_idx = dd_val[k]
                wake = dlv + receive_overhead[dep_idx]
                if wake > ready[dep_idx]:
                    ready[dep_idx] = wake
                remaining[dep_idx] -= 1
                if remaining[dep_idx] == 0:
                    push_seq[dep_idx] = seq
                    seq += 1
        last_ready, last_seq, _ = entries[-1]

    if processed != n:
        stuck = [i for i in range(n) if remaining[i] > 0]
        raise RuntimeError(
            "dependency deadlock: %d messages never became ready (first: %s)"
            % (len(stuck), stuck[:5])
        )
    return finish, ready, inject, deliver, ideal, busy, total_wire


def run_indexed(
    table: LinkTable,
    flow_control: FlowControl,
    payloads: Sequence[float],
    route_off: Sequence[int],
    route_val: Sequence[int],
    dep_struct: DepStructure,
    not_before: Sequence[float],
    receive_overhead: Sequence[float],
    recorder=None,
    messages: Optional[List[Message]] = None,
):
    """The global ``(ready, push_seq)`` heap over dense link-indexed arrays.

    The ``engine="event"`` semantics: messages are processed in heap pop
    order and FIFO channels grant in that order, for any dependency DAG.
    Same arrays and ``recorder``/``messages`` hooks as
    :func:`run_grouped`; never declines.

    Returns the same tuple as :func:`run_grouped`.
    """
    n = len(payloads)
    num_links = len(table.keys)
    bandwidth = table.bandwidth
    latency = table.latency
    capacity = table.capacity
    keys = table.keys

    dd_off, dd_val, dep_counts = dep_struct
    remaining = list(dep_counts)
    ready = list(not_before)

    avail = [0.0] * num_links
    pools: Dict[int, List[float]] = {}
    busy = [0.0] * num_links
    inject = [0.0] * n
    deliver = [0.0] * n
    ideal = [0.0] * n
    wire_cache: Dict[float, float] = {}
    wire_bytes = flow_control.wire_bytes
    total_wire = 0.0
    finish = 0.0
    processed = 0

    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: List[Tuple[float, int, int]] = []
    seq = 0
    for idx in range(n):
        if remaining[idx] == 0:
            heappush(heap, (ready[idx], seq, idx))
            seq += 1

    while heap:
        rd, _sq, idx = heappop(heap)
        payload = payloads[idx]
        wire = wire_cache.get(payload)
        if wire is None:
            wire = wire_bytes(payload)
            wire_cache[payload] = wire
        r0 = route_off[idx]
        r1 = route_off[idx + 1]
        total_wire += wire * (r1 - r0)
        if r0 == r1:  # zero-hop (src == dst) — degenerate, instant
            inj = rd
            dlv = rd
            idl = rd
        else:
            head = rd
            inj = None
            ser = 0.0
            lat_sum = 0.0
            max_ser = 0.0
            for k in range(r0, r1):
                li = route_val[k]
                if capacity[li] == 1:
                    ch = 0
                    at = avail[li]
                    ser = wire / bandwidth[li]
                    grant = head if head >= at else at
                    avail[li] = grant + ser
                else:
                    pool = pools.get(li)
                    if pool is None:
                        pool = pools[li] = [0.0] * capacity[li]
                    ch = min(range(len(pool)), key=pool.__getitem__)
                    at = pool[ch]
                    ser = wire / bandwidth[li]
                    grant = head if head >= at else at
                    pool[ch] = grant + ser
                busy[li] += ser
                if recorder is not None:
                    recorder.hop(idx, keys[li], ch, head, grant, ser)
                if inj is None:
                    inj = grant
                lat = latency[li]
                head = grant + lat
                lat_sum += lat
                if ser > max_ser:
                    max_ser = ser
            dlv = head + ser
            idl = rd + lat_sum + max_ser
        ready[idx] = rd
        inject[idx] = inj
        deliver[idx] = dlv
        ideal[idx] = idl
        if recorder is not None:
            recorder.message_done(
                idx, messages[idx], MessageTiming(rd, inj, dlv, idl), wire
            )
        if dlv > finish:
            finish = dlv
        processed += 1

        for k in range(dd_off[idx], dd_off[idx + 1]):  # wake dependents
            dep_idx = dd_val[k]
            wake = dlv + receive_overhead[dep_idx]
            if wake > ready[dep_idx]:
                ready[dep_idx] = wake
            remaining[dep_idx] -= 1
            if remaining[dep_idx] == 0:
                heappush(heap, (ready[dep_idx], seq, dep_idx))
                seq += 1

    if processed != n:
        stuck = [i for i in range(n) if remaining[i] > 0]
        raise RuntimeError(
            "dependency deadlock: %d messages never became ready (first: %s)"
            % (len(stuck), stuck[:5])
        )
    return finish, ready, inject, deliver, ideal, busy, total_wire


def _result_from_arrays(table: LinkTable, raw) -> SimulationResult:
    finish, ready, inject, deliver, ideal, busy, total_wire = raw
    keys = table.keys
    link_busy = {
        keys[li]: busy[li] for li in range(len(keys)) if busy[li] != 0.0
    }
    return SimulationResult(
        finish_time=finish,
        timings=LazyTimings(ready, inject, deliver, ideal),
        link_busy=link_busy,
        total_wire_bytes=total_wire,
    )


class _HeldRecorder:
    """Holds the step loop's recorder calls until it is known to accept.

    A declined step loop has already reported its early groups, and the
    heap then reports every message again.
    """

    def __init__(self, recorder) -> None:
        self.calls: List[Tuple[object, tuple]] = []
        self.hop = lambda *args: self.calls.append((recorder.hop, args))
        self.message_done = lambda *args: self.calls.append(
            (recorder.message_done, args)
        )


def run_lowered(
    table: LinkTable,
    flow_control: FlowControl,
    lowering: Lowering,
    groups: Optional[Sequence[Sequence[int]]] = None,
    recorder=None,
    messages: Optional[List[Message]] = None,
    topology: Optional[str] = None,
) -> Tuple[SimulationResult, str]:
    """Simulate ``lowering``; returns ``(result, engine that resolved)``.

    With ``groups`` the step loop runs first; when it declines the
    ``step-overlap`` fallback is recorded against ``topology`` and the
    heap runs on the same arrays.  Without ``groups`` only the heap runs.
    The engine is ``"lockstep"`` when the step loop answered, ``"event"``
    when the heap did.
    """
    arrays = lowering[:6]
    if groups is not None:
        held = _HeldRecorder(recorder) if recorder is not None else None
        with obs.span("engine.lockstep", topology=topology) as rung:
            raw = run_grouped(
                table, flow_control, groups, *arrays,
                recorder=held, messages=messages,
            )
            rung.set("accepted", raw is not None)
        if raw is not None:
            if held is not None:
                for call, args in held.calls:
                    call(*args)
            return _result_from_arrays(table, raw), "lockstep"
        # A step overlapped the previous group's injection window, so
        # step-level processing would not be exact.
        obs.record_fallback("lockstep", "step-overlap", topology=topology)
    with obs.span("engine.event", topology=topology):
        raw = run_indexed(
            table, flow_control, *arrays, recorder=recorder, messages=messages
        )
    return _result_from_arrays(table, raw), "event"
