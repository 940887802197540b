#!/usr/bin/env python3
"""Re-record ``perfbench/expected.json`` from the current program.

    python3 perfbench/record_expected.py

Runs each ``plan-cold`` fabric once per scale through the ``repro plan``
CLI and stores the digest of every evaluated point, the point count and
the skipped variants.  Only re-record when a change is meant to alter
predictions (and say so in the change); the benchmark fails any run
whose outputs differ from this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import workload_plan  # noqa: E402


def main() -> int:
    common.import_program()
    record = {"plan-cold": {}}
    workdir = tempfile.mkdtemp(prefix="record-", dir=common.ROOT)
    try:
        for scale, cfg in workload_plan.SCALES.items():
            state = workload_plan.fresh_dir(workdir, "state-" + scale)
            fabrics = record["plan-cold"][scale] = {}
            for kind, dims in cfg["fabrics"]:
                child = common.run_child(
                    workload_plan.plan_argv(kind, dims, cfg["sizes"], state),
                    workdir,
                )
                if child.returncode != 0:
                    print(child.stderr, file=sys.stderr)
                    return 1
                spec = workload_plan.fabric_spec(kind, dims)
                fabrics[spec] = workload_plan.record_of(
                    spec, cfg["sizes"], state, json.loads(child.stdout)
                )
                print(scale, spec, fabrics[spec])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workload_plan.EXPECTED_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
