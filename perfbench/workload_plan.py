"""``plan-cold``: fresh ``repro plan`` processes, each on an empty state dir.

One operation is one cold plan: a new CLI process planning every
registered variant over the size range on one fabric, on a state
directory of its own that starts empty; its wall time includes
interpreter start and imports.  A run times rounds of one plan per
fabric (the first fabric, then the second) and reports the sum over the
fabrics of each fabric's median plan time: the cold plan time of the
pair.

Checks, outside the timed region: a digest of every evaluated
``(scenario, time, bandwidth, max_queue_delay)`` read back from the
state dir against ``expected.json``, every frontier entry of the plan's
JSON against the stored point, the skipped-variant list, and a seeded
sample of points re-simulated with ``engine="event"`` (exact ``==``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
from typing import Dict, List, Sequence, Tuple

import common
from common import Outcome

#: (kind, dims) per fabric and the size range, by scale.  The two fabrics
#: together run every builder: 2d-ring only on the torus, hdrm and
#: hierarchical only on the BiGraph.
SCALES = {
    "full": {"fabrics": (("torus", "12x12"), ("bigraph", "4x8")),
             "sizes": "1M..64M", "event_checks": (1, 2)},
    "tiny": {"fabrics": (("torus", "2x2"), ("bigraph", "2x2")),
             "sizes": "1M..2M", "event_checks": (1, 1)},
}

EXPECTED_PATH = os.path.join(common.HERE, "expected.json")
SETUP_REPEATS = 5
#: Rounds timed even when fewer fit in the run's seconds.
MIN_ROUNDS = 3


def fabric_spec(kind: str, dims: str) -> str:
    return "%s-%s" % (kind, dims)


def plan_argv(kind: str, dims: str, sizes: str, state_dir: str) -> List[str]:
    return common.repro_argv(
        "plan", "--topology", kind, "--dims", dims, "--sizes", sizes,
        "--state-dir", state_dir, "--json",
    )


def evaluated_points(spec: str, sizes: str, state_dir: str):
    """``[(scenario, entry or None)]`` for every plan candidate of
    ``spec``, looked up in the state dir's prediction cache."""
    from repro.scenario import parse_sizes
    from repro.serve.planner import WorkloadSpec
    from repro.serve.service import CACHE_FILENAME
    from repro.sweep import PredictionCache

    entries = PredictionCache(os.path.join(state_dir, CACHE_FILENAME)).entries
    candidates = WorkloadSpec(topology=spec, sizes=parse_sizes(sizes)).candidates()
    topology = candidates[0].build_topology()
    return [(scenario, entries.get(scenario.cache_key(topology)))
            for scenario in candidates]


def digest(points: Sequence[Tuple[object, Dict[str, float]]]) -> str:
    lines = sorted(
        "%s|%r|%r|%r" % (scenario, entry["time"], entry["bandwidth"],
                         entry["max_queue_delay"])
        for scenario, entry in points if entry is not None
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def record_of(spec: str, sizes: str, state_dir: str,
              plan_json: Dict[str, object]) -> Dict[str, object]:
    points = evaluated_points(spec, sizes, state_dir)
    return {
        "digest": digest(points),
        "points": sum(1 for _s, entry in points if entry is not None),
        "skipped": sorted(item["algorithm"] for item in plan_json["skipped"]),
    }


def check_plan(spec: str, sizes: str, state_dir: str, stdout: str,
               expected: Dict[str, object]) -> List[str]:
    """Problems with one cold plan's output (empty list: correct)."""
    try:
        plan_json = json.loads(stdout)
    except ValueError:
        return ["%s: plan printed no JSON" % spec]
    problems = []
    got = record_of(spec, sizes, state_dir, plan_json)
    for field in ("digest", "points", "skipped"):
        if got[field] != expected[field]:
            problems.append("%s: %s %r != expected %r"
                            % (spec, field, got[field], expected[field]))
    stored = {str(s): e for s, e in evaluated_points(spec, sizes, state_dir)}
    for bucket in plan_json["buckets"]:
        for item in bucket["frontier"]:
            entry = stored.get(item["scenario"])
            if entry is None or any(
                item[k] != entry[k]
                for k in ("time", "bandwidth", "max_queue_delay")
            ):
                problems.append("%s: frontier entry %s disagrees with the "
                                "stored point" % (spec, item["scenario"]))
    return problems


def event_recheck(scenario, entry) -> bool:
    """Re-simulate one point on the exact event engine; exact ``==``."""
    from repro.collectives import build_schedule
    from repro.ni import simulate_allreduce

    resolved = scenario.resolve()
    schedule = build_schedule(resolved.builder, scenario.build_topology())
    result = simulate_allreduce(
        schedule, scenario.data_bytes, resolved.flow_control,
        scenario.lockstep, engine="event",
    )
    return (result.time == entry["time"]
            and result.bandwidth == entry["bandwidth"]
            and result.max_queue_delay() == entry["max_queue_delay"])


def load_expected(scale: str) -> Dict[str, Dict[str, object]]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["plan-cold"][scale]


def fresh_dir(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run(ctx) -> Outcome:
    if ctx.trace:
        return run_traced(ctx)
    cfg = SCALES[ctx.scale]
    out = Outcome()
    rng = random.Random(ctx.seed)

    # -- set-up: warm-up CLI starts (the page cache, compiled bytecode).
    warmups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        child = common.run_child(common.repro_argv("list"), ctx.workdir)
        warmups.append(time.perf_counter() - t0)
        out.attempted += 1
        if child.returncode != 0:
            out.fail("warm-up `repro list` exited %d" % child.returncode)
    setup_s = common.median(warmups)

    # -- timed: at least MIN_ROUNDS rounds, then more while one more
    # round (at the median round time so far) still fits in the seconds.
    specs = [fabric_spec(kind, dims) for kind, dims in cfg["fabrics"]]
    plans: Dict[str, List[Tuple[str, common.ChildRun]]] = {
        spec: [] for spec in specs}
    rounds: List[float] = []
    begin = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
        time.perf_counter() - begin + common.median(rounds) <= ctx.seconds
    ):
        took = 0.0
        for spec, (kind, dims) in zip(specs, cfg["fabrics"]):
            state = fresh_dir(ctx.workdir, "state-%s-%d" % (spec, len(rounds)))
            child = common.run_child(
                plan_argv(kind, dims, cfg["sizes"], state), ctx.workdir
            )
            took += child.wall_s
            plans[spec].append((state, child))
        rounds.append(took)

    # -- checks, untimed: one operation per plan process.
    common.import_program()
    expected = load_expected(ctx.scale)
    for spec in specs:
        for state, child in plans[spec]:
            out.attempted += 1
            if child.returncode != 0:
                out.fail("plan %s exited %d: %s" % (
                    spec, child.returncode, child.stderr[-300:]))
                continue
            problems = check_plan(spec, cfg["sizes"], state, child.stdout,
                                  expected[spec])
            if problems:
                out.fail("; ".join(problems[:3]))
    for spec, count in zip(specs, cfg["event_checks"]):
        first_state = plans[spec][0][0]
        points = [p for p in evaluated_points(spec, cfg["sizes"], first_state)
                  if p[1] is not None]
        for scenario, entry in rng.sample(points, min(count, len(points))):
            out.attempted += 1
            if not event_recheck(scenario, entry):
                out.fail("%s: event engine disagrees" % scenario)

    walls = {spec: [c.wall_s for _s, c in plans[spec]] for spec in specs}
    cold_s = sum(common.median(w) for w in walls.values())
    rss = max(common.median([c.peak_rss_mb for _s, c in plans[spec]])
              for spec in specs)
    out.put("setup_s", setup_s, "s")
    out.put("op_p50_ms", cold_s * 1000.0, "ms")
    out.put("peak_rss_mb", rss, "MB")
    out.line("plan_cold_s", cold_s, "s",
             "sum of per-fabric medians over %d rounds" % len(rounds))
    for spec in specs:
        out.line("plan_cold_s." + spec, common.median(walls[spec]), "s",
                 ", ".join("%.2f" % w for w in walls[spec]))
    out.line("plan_peak_rss_mb", rss, "MB",
             "peak RSS of the plan children (largest per-fabric median)")
    cpu = sum(common.median([c.cpu_s for _s, c in plans[spec]])
              for spec in specs)
    out.line("cpu_ms_per_op", cpu * 1e3, "ms",
             "user+system CPU of the plan children, per-fabric medians summed")
    return out


def _plan_in_process(cfg, state_dir: str) -> Tuple[float, Dict[str, int]]:
    """Plan every fabric in this process as the CLI would; returns the
    wall time and the stores' counters summed over the fabrics."""
    from repro.scenario import parse_sizes
    from repro.serve.planner import WorkloadSpec, plan
    from repro.serve.service import ARTIFACTS_DIRNAME, CACHE_FILENAME
    from repro.sweep import ArtifactStore, PredictionCache

    counts = dict.fromkeys(
        ("artifact_hits", "artifact_misses", "hits", "misses", "entries"), 0)
    start = time.perf_counter()
    for kind, dims in cfg["fabrics"]:
        cache = PredictionCache(os.path.join(state_dir, CACHE_FILENAME))
        artifacts = ArtifactStore(os.path.join(state_dir, ARTIFACTS_DIRNAME))
        spec = WorkloadSpec(topology=fabric_spec(kind, dims),
                            sizes=parse_sizes(cfg["sizes"]))
        json.dumps(plan(spec, cache=cache, artifacts=artifacts).to_dict())
        cache.save()
        counts["artifact_hits"] += artifacts.hits
        counts["artifact_misses"] += artifacts.misses
        counts["hits"] += cache.hits
        counts["misses"] += cache.misses
        counts["entries"] = len(cache)
    return time.perf_counter() - start, counts


def import_probe_s(workdir: str) -> float:
    """Median seconds to import the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(3):
        child = common.run_child([sys.executable, "-c", code], workdir)
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return common.median(samples)


def run_traced(ctx) -> Outcome:
    """In-process plans, untraced then traced, plus the CLI import probe."""
    import layers
    from tracing import SpanRecorder, hooked

    cfg = SCALES[ctx.scale]
    out = Outcome()
    common.import_program()
    from repro.metrics import MetricsRegistry, collecting

    metrics = layers.empty()
    metrics["cli.import_s"] = import_probe_s(ctx.workdir)
    untraced, _counts = _plan_in_process(
        cfg, fresh_dir(ctx.workdir, "state-untraced"))
    state = fresh_dir(ctx.workdir, "state-traced")
    recorder = SpanRecorder(run_id="plan-cold-%d" % ctx.seed)
    registry = MetricsRegistry()
    with hooked(recorder), collecting(registry):
        with recorder.span("workload") as root:
            traced, counts = _plan_in_process(cfg, state)
    layers.fold_spans(metrics, recorder)
    layers.fold_fallbacks(metrics, registry.counters)
    from repro.serve.service import ARTIFACTS_DIRNAME

    metrics["artifacts.bytes"] = layers.dir_bytes(
        os.path.join(state, ARTIFACTS_DIRNAME))
    metrics["artifacts.hits"] = counts["artifact_hits"]
    metrics["artifacts.misses"] = counts["artifact_misses"]
    metrics["cache.entries"] = counts["entries"]
    probes = counts["hits"] + counts["misses"]
    metrics["cache.hit_ratio"] = counts["hits"] / probes if probes else 0.0
    unattributed = recorder.self_times()[root.span_id]
    metrics["trace.unattributed_frac"] = unattributed / root.duration
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    out.attempted = len(cfg["fabrics"])
    recorder.dump(os.path.join(ctx.workdir, "spans.jsonl"))
    if ctx.keep_spans:
        shutil.copy(os.path.join(ctx.workdir, "spans.jsonl"), ctx.keep_spans)
    for name, unit in layers.PER_LAYER:
        out.put(name, metrics[name], unit)
    out.report.extend(self_time_table(recorder, root))
    return out


def self_time_table(recorder, root) -> List[str]:
    """Self time per span name below the root span, the unattributed
    row, and their sum (the traced wall time)."""
    summary = recorder.summary(root)
    rows = ["%-22s %8s %10s %10s" % ("layer", "calls", "self_s", "share")]
    total = 0.0
    for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
        if name == "workload":
            continue
        row = summary[name]
        total += row["self_s"]
        rows.append("%-22s %8d %10.4f %9.1f%%" % (
            name, row["calls"], row["self_s"],
            100.0 * row["self_s"] / root.duration))
    unattributed = recorder.self_times()[root.span_id]
    rows.append("%-22s %8s %10.4f %9.1f%%" % (
        "unattributed", "", unattributed, 100.0 * unattributed / root.duration))
    rows.append("%-22s %8s %10.4f (traced wall %.4f s)" % (
        "sum", "", total + unattributed, root.duration))
    return rows
