#!/usr/bin/env python3
"""The repository benchmark: one command, seeded workloads.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  It drives the program only through
its public entry points (the ``repro plan`` CLI, a ``repro serve``
subprocess over HTTP and, in the traced run, the public layer functions)
and checks every output.  Human-readable figures go first; the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import dataclass
from typing import Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("plan-cold", "serve-read")


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    workdir: str
    keep_spans: Optional[str] = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: the smoke-test inputs (seconds, not the real grid)",
    )
    parser.add_argument(
        "--keep-spans", default=None, metavar="PATH",
        help="traced run: also copy the span records (JSONL) here",
    )
    return parser


def run(ctx: Context) -> common.Outcome:
    if ctx.workload == "plan-cold":
        import workload_plan

        return workload_plan.run(ctx)
    import workload_serve

    return workload_serve.run(ctx)


def _exit_on_sigterm(signum, _frame) -> None:
    # SystemExit unwinds the workload's ``finally`` blocks, which stop
    # its child processes and remove its scratch directory.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A shell that starts this process in the background leaves SIGINT
    # ignored, and children inherit an ignored signal; ``repro serve``
    # shuts down on SIGINT, so its children must get the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not common.program_present():
        print("perfbench: no program source at %s; run from the root of a "
              "checkout of the repository" % common.SRC, file=sys.stderr)
        return 2
    workdir = os.path.join(
        common.RUN_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    )
    os.makedirs(workdir)
    ctx = Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), scale=args.scale, workdir=workdir,
        keep_spans=args.keep_spans,
    )
    try:
        outcome = run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(common.RUN_DIR)
        except OSError:
            pass  # another run still uses it
    if args.trace:
        import layers

        names = [name for name, _unit in layers.PER_LAYER]
    else:
        names = [name for name, _unit in common.END_TO_END]
    print("workload %s  seed %d  %s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    for line in outcome.report:
        print("  " + line)
    for name in names:
        print("  %-26s %14.6g %s" % (
            name, outcome.metrics[name], outcome.units[name]))
    print("  %-26s %14.6g ratio  (%d of %d operations)" % (
        "error_frac", outcome.failed / max(1, outcome.attempted),
        outcome.failed, outcome.attempted))
    for problem in outcome.problems:
        print("  FAILED: " + problem)
    sys.stdout.flush()
    print(json.dumps(outcome.to_json(names), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
