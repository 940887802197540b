"""Run manifests: one self-describing JSON-lines record per run.

A manifest record answers, months later, "what exactly produced these
numbers?": the command and its arguments, a stable fingerprint of that
configuration, the package version and git commit that ran it, wall-clock
cost, and the full metric snapshot (which carries the run's headline
results — bandwidth gauges, cache hit counters, bench speedups — with
their topology/algorithm/size labels).

Records append to a ``.jsonl`` file, one JSON object per line, so a file
accumulates a comparable history of runs; ``repro report`` consumes these
files and renders drift/regression dashboards across them.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from typing import Dict, List, Optional, Sequence

from .registry import MetricsRegistry

#: Bump when the manifest record layout changes incompatibly.
#: v2: scenario-aware records — a ``scenarios`` list of canonical scenario
#: strings, and ``fingerprint`` is the scenario-set fingerprint whenever
#: the run described its work as scenarios (argv-digest fallback kept for
#: commands without a scenario shape).
#: v3: records the numpy version and the simulation engine that produced
#: the numbers (the vectorized engine's results depend on numpy, so a
#: drift investigation needs both pinned in the record).
#: v4: the unreasoned ``sim.lockstep_vec_fallbacks`` and
#: ``sim.lockstep_fallbacks`` counters are gone; every engine decline is
#: one reasoned ``sim.fallbacks{engine, reason, topology}`` record.
MANIFEST_SCHEMA_VERSION = 4


def repro_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from .. import __version__

        return __version__


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    sha = out.stdout.strip()
    return sha or None


def config_fingerprint(command: str, argv: Sequence[str],
                       labels: Dict[str, str]) -> str:
    """Stable digest of what was run (not when or how fast)."""
    canon = json.dumps(
        {"command": command, "argv": list(argv), "labels": labels},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_manifest(
    command: str,
    argv: Sequence[str],
    labels: Dict[str, str],
    wall_time_s: float,
    registry: Optional[MetricsRegistry] = None,
    run_id: Optional[str] = None,
    scenarios: Optional[Sequence] = None,
    obs_stream: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble one manifest record (plain dict, JSON-serializable).

    When ``scenarios`` (a sequence of :class:`repro.scenario.Scenario`)
    is given, the record's fingerprint is the scenario-set fingerprint —
    the same identity the prediction cache and artifact store derive from
    — so a manifest row, a cache entry and an artifact for one point all
    agree.  Without scenarios the argv-digest fallback applies.
    """
    timestamp = time.time()
    if scenarios:
        from ..scenario import scenario_set_fingerprint

        fingerprint = scenario_set_fingerprint(list(scenarios))
        scenario_strings: Optional[List[str]] = [str(s) for s in scenarios]
    else:
        fingerprint = config_fingerprint(command, argv, labels)
        scenario_strings = None
    engines = sorted(
        {getattr(s, "engine", None) for s in scenarios or ()} - {None}
    ) or ([labels["engine"]] if labels.get("engine") else [])
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except Exception:
        numpy_version = None
    record: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "run_id": run_id or "%s-%d" % (command, int(timestamp * 1000)),
        "timestamp": timestamp,
        "date": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(timestamp)),
        "command": command,
        "argv": list(argv),
        "labels": dict(labels),
        "scenarios": scenario_strings,
        "fingerprint": fingerprint,
        "engines": engines,
        "numpy": numpy_version,
        "version": repro_version(),
        "git_sha": git_sha(),
        "wall_time_s": wall_time_s,
        "metrics": registry.snapshot() if registry is not None else None,
    }
    if obs_stream is not None:
        # Optional pointer from the run record to its flushed span stream
        # (`--obs PATH`), so `repro obs explain` finds the trace that
        # produced these numbers.  Additive: absent unless obs was on.
        record["obs_stream"] = os.path.abspath(obs_stream)
    return record


def append_manifest(path: str, record: Dict[str, object]) -> None:
    """Append one record to a JSON-lines manifest file (created if missing)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")


def load_manifests(path: str) -> List[Dict[str, object]]:
    """All records of one ``.jsonl`` manifest file, in file order.

    Unparseable lines are skipped (a crashed writer can leave a torn final
    line); records missing the schema field are kept but unversioned
    callers should treat them warily.
    """
    records: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records
