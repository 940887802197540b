"""Shared plumbing for the benchmark workloads.

Locating the checkout, spawning ``python3 -m repro`` children with the
checkout's ``src`` on the path, per-child process accounting, the
percentile rule and the result record that ``run.py`` prints.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Scratch space inside the checkout (git-ignored); every run makes its
#: own subdirectory and removes it on exit.
RUN_DIR = os.path.join(ROOT, ".bench_run")

#: The end-to-end metrics every workload prints with ``--trace 0``: the
#: names are shared by all workloads so each one is gated on every run.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Timeout for one child process (plan CLI, import probe).
CHILD_TIMEOUT_S = 150.0


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (idempotent)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


@dataclass
class ChildRun:
    """One finished child process with its own resource usage."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], workdir: str,
              timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run ``argv`` to completion and account for exactly that child.

    Output goes to files in ``workdir`` and the child is reaped with
    ``os.wait4``, whose rusage covers this pid alone (peak RSS, user +
    system CPU).  A child that outlives ``timeout_s`` is killed.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=child_env(),
        )
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        cpu_s=usage.ru_utime + usage.ru_stime,
        stdout=stdout,
        stderr=stderr,
    )


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads)."""
    with open("/proc/%d/stat" % pid) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open("/proc/%d/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def connections_allowed() -> int:
    """Keep-alive connections (and generator threads) the load generator
    may use: never more than the processors this process may run on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when fewer than ten
    samples lie beyond it (the benchmark never reports such a tail)."""
    n = len(values)
    if n == 0:
        return None
    beyond = n * (q if q < 50.0 else 100.0 - q) / 100.0
    if q != 50.0 and beyond < 10.0 - 1e-9:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Outcome:
    """What one workload run measured, checked and counted."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    #: Human-readable lines (the workload-specific end-to-end figures).
    report: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Count one failed operation (the first 20 reasons are kept)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = float(value)
        self.units[name] = unit

    def line(self, name: str, value: Optional[float], unit: str,
             detail: str = "") -> None:
        shown = "n/a" if value is None else "%.6g" % value
        self.report.append(
            "%-22s %12s %-6s %s" % (name, shown, unit, detail)
        )

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def to_json(self, names: Sequence[str]) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": max(1, int(self.attempted)),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name], "unit": self.units[name]}
                for name in names
            },
        }
