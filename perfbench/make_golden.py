#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the current sources.

The golden file pins the sha256 of every output the benchmark checks:
the canonical verify report, each bruhat-dot text and every series the
formula and stretch workloads compute, at full and smoke sizes.  Run it
only when a change is meant to alter those outputs:

    python3 perfbench/make_golden.py
"""

import json
import random
import sys
import time

import run


def main() -> int:
    golden = {}
    for sizes_name, sizes in run.SIZES.items():
        golden[sizes_name] = {}
        for workload in run.WORKLOADS:
            runner = run.Runner(time.monotonic() + 600)
            sample = run.run_sample(runner, workload, sizes, random.Random(0), None)
            bad = [res["key"] for res in sample["ops"] if res["failed"]]
            if bad:
                print(f"error: {workload} ({sizes_name}) failed: {bad}", file=sys.stderr)
                return 1
            golden[sizes_name][workload] = {res["key"]: res["sha"] for res in sample["ops"]}
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
