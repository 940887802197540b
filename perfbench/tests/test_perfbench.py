"""The benchmark's own tests: tiny-scale smoke runs, stable metric names,
and a corrupted answer being caught.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import layers  # noqa: E402
import workload_serve  # noqa: E402
from loadgen import LoadGenerator, Request  # noqa: E402

WORKLOADS = ("plan-cold", "serve-read")

#: The gated end-to-end names.  Renaming one breaks every comparison
#: against earlier runs, so a change here must be deliberate.
END_TO_END_NAMES = ("setup_s", "op_p50_ms", "peak_rss_mb")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_are_stable():
    bench = load_benchmark()
    assert tuple(m["name"] for m in bench["end_to_end"]) == END_TO_END_NAMES
    assert tuple(name for name, _u in common.END_TO_END) == END_TO_END_NAMES
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(
        common.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "2",
                     "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert tuple(result["metrics"]) == tuple(sorted(END_TO_END_NAMES))
    for name, unit in common.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "2",
                     "--trace", "1", "--scale", "tiny",
                     "--keep-spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True, proc.stdout
    assert sorted(result["metrics"]) == sorted(
        name for name, _u in layers.PER_LAYER)
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    roots = [r for r in records if r["name"] == "workload"]
    assert len(roots) == 1
    root = roots[0]
    assert all(r["run_id"] == root["run_id"] for r in records)
    # Self times of the spans below the root plus the root's own self
    # time (the unattributed row) add up to the traced wall time.
    below, todo = [], [root["span_id"]]
    while todo:
        parent = todo.pop()
        kids = [r for r in records if r["parent"] == parent]
        below.extend(kids)
        todo.extend(r["span_id"] for r in kids)
    duration = lambda r: r["end"] - r["start"]  # noqa: E731
    self_times = {r["span_id"]: duration(r) for r in below + [root]}
    for r in below:
        self_times[r["parent"]] -= duration(r)
    assert sum(self_times.values()) == pytest.approx(duration(root))
    assert all(value >= -1e-9 for value in self_times.values())
    if workload == "plan-cold":
        assert result["metrics"]["compile.ops"]["value"] > 0
        assert result["metrics"]["serve.predict_us"]["value"] == 0
    else:
        assert result["metrics"]["serve.predict_us"]["value"] > 0
        assert result["metrics"]["collectives.build_s"]["value"] == 0


def test_corrupted_answer_is_counted_as_failure(tmp_path):
    common.import_program()
    cfg = workload_serve.SCALES["tiny"]
    template = workload_serve.build_template(str(tmp_path), cfg)
    from repro.scenario import Scenario

    text = str(template.scenarios[0])
    expected = workload_serve.expected_entries(
        template, [Scenario.parse(text)])
    state = tmp_path / "corrupted"
    shutil.copytree(template.path, state)
    cache_file = state / "cache.json"
    payload = json.loads(cache_file.read_text())
    for entry in payload["entries"].values():
        entry["time"] *= 1.5
    cache_file.write_text(json.dumps(payload))

    outcome = common.Outcome()
    server = workload_serve.Server(str(state), str(tmp_path))
    try:
        gen = LoadGenerator("127.0.0.1", server.port, 1)
        now = time.perf_counter()
        workload_serve.send_reads(gen, outcome, [
            Request(due=now + 0.01 * i, path=workload_serve.predict_path(text),
                    kind="read", text=text) for i in range(3)], expected)
        gen.close()
    finally:
        server.stop()
    assert outcome.attempted == 3
    assert outcome.failed == 3
    assert not outcome.correct
    assert "time" in outcome.problems[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "plan-cold", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrong_shaped_and_missing_answers_are_failures():
    expected = {"s": {"time": 1.0, "bandwidth": 2.0, "max_queue_delay": 0.0}}
    sent = [Request(due=0.0, path="/predict?scenario=s", kind="read",
                    text="s") for _ in range(3)]
    sent[0].status, sent[0].body = 200, b"[1, 2]"
    sent[1].status, sent[1].error = -1, "ConnectionResetError: reset"
    outcome = common.Outcome()
    # The third read never completed: it is not among the done ones.
    workload_serve.check_reads(outcome, sent, sent[:2], expected)
    assert outcome.attempted == 3
    assert outcome.failed == 3
    assert "not a JSON object" in outcome.problems[0]
    assert "never completed" in outcome.problems[2]
