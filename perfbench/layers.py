"""The per-layer metric catalog and its assembly from a traced run.

Every workload's traced run prints every name in :data:`PER_LAYER`; a
layer the workload bypasses reads 0 (that is the prediction for it).
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

from tracing import SpanRecorder

#: Schedule builders of ``repro.collectives.ALGORITHMS`` (multitree-msg is
#: a variant of the multitree builder, so its work lands under multitree).
BUILDERS = (
    "2d-ring", "butterfly", "dbtree", "halving-doubling", "hdrm",
    "hierarchical", "multitree", "ring",
)

#: Reasons the engine ladder records in ``sim.fallbacks``; anything new
#: lands in ``other`` so a new decline still shows.
FALLBACK_REASONS = (
    "link-disjointness", "multi-channel", "gate-boundary", "wire-total",
    "not-lockstep-gated", "unknown-link", "plan", "step-overlap", "other",
)


def _catalog() -> Tuple[Tuple[str, str], ...]:
    rows = [
        ("cli.import_s", "s"),
        ("topology.build_s", "s"),
        ("collectives.build_s", "s"),
    ]
    rows += [("collectives.build_s." + b, "s") for b in BUILDERS]
    rows += [("compile.lower_s", "s")]
    rows += [("compile.lower_s." + b, "s") for b in BUILDERS]
    rows += [
        ("compile.ops", "count"),
        ("artifacts.put_s", "s"),
        ("artifacts.get_s", "s"),
        ("artifacts.bytes", "bytes"),
        ("artifacts.hits", "count"),
        ("artifacts.misses", "count"),
        ("engine.simulate_s", "s"),
    ]
    rows += [("engine.simulate_s." + b, "s") for b in BUILDERS]
    rows += [
        ("engine.points", "count"),
        ("engine.vec_accept_ratio", "ratio"),
    ]
    rows += [("engine.fallbacks." + r, "count") for r in FALLBACK_REASONS]
    rows += [
        ("engine.host_ns_per_msg", "ns"),
        ("cache.get_us", "us"),
        ("cache.save_s", "s"),
        ("cache.saves", "count"),
        ("cache.entries", "count"),
        ("cache.hit_ratio", "ratio"),
        ("serve.handler_ms", "ms"),
        ("serve.transport_ms", "ms"),
        ("serve.parse_us", "us"),
        ("serve.identity_us", "us"),
        ("serve.predict_us", "us"),
        ("serve.request_log_us", "us"),
        ("serve.enqueued", "count"),
        ("serve.queue_full", "count"),
        ("serve.queue_depth_max", "count"),
        ("serve.compile_ms", "ms"),
        ("planner.frontier_s", "s"),
        ("client.late_ms", "ms"),
        ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return tuple(rows)


#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = _catalog()


def empty() -> Dict[str, float]:
    return {name: 0.0 for name, _unit in PER_LAYER}


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def fold_spans(out: Dict[str, float], recorder: SpanRecorder) -> None:
    """Fill the span-derived layer metrics (self times, call means)."""
    selfs = recorder.self_times()
    inside_engine = recorder.ancestors_named("engine.")
    gets = [s for s in recorder.spans if s.name == "cache.get"]
    per = {
        "topology.build": "topology.build_s",
        "collectives.build": "collectives.build_s",
        "compile.lower": "compile.lower_s",
        "artifacts.put": "artifacts.put_s",
        "artifacts.get": "artifacts.get_s",
        "engine.simulate": "engine.simulate_s",
        "cache.save": "cache.save_s",
        "planner.frontier": "planner.frontier_s",
    }
    engine_total = 0.0
    messages = 0
    for span in recorder.spans:
        metric = per.get(span.name)
        if metric is not None:
            out[metric] += selfs[span.span_id]
            if span.variant and metric + "." + span.variant in out:
                out[metric + "." + span.variant] += selfs[span.span_id]
        if span.name == "compile.lower":
            out["compile.ops"] += span.ops
        elif span.name == "cache.save":
            out["cache.saves"] += 1
        elif span.name == "engine.simulate" and not inside_engine[span.span_id]:
            out["engine.points"] += span.points
            engine_total += span.duration
            messages += span.points * span.messages
    if gets:
        out["cache.get_us"] = (
            sum(s.duration for s in gets) / len(gets) * 1e6
        )
    if messages:
        out["engine.host_ns_per_msg"] = engine_total / messages * 1e9


def fold_fallbacks(out: Dict[str, float], counters: Dict[str, float]) -> None:
    """Engine declines from the ``sim.fallbacks`` registry counters."""
    vec_declines = 0.0
    for key, value in counters.items():
        name, _sep, labels = key.partition("|")
        if name != "sim.fallbacks":
            continue
        fields = dict(
            part.split("=", 1) for part in labels.split(",") if "=" in part
        )
        if fields.get("engine") == "artifact":
            continue  # artifact-store misses are counted under artifacts.*
        reason = fields.get("reason", "other")
        if reason not in FALLBACK_REASONS:
            reason = "other"
        out["engine.fallbacks." + reason] += value
        if fields.get("engine") == "lockstep-vec":
            vec_declines += value
    points = out["engine.points"]
    if points:
        out["engine.vec_accept_ratio"] = max(0.0, points - vec_declines) / points
