#!/usr/bin/env python3
"""Speed and correctness gate: perfbench on this checkout, or head vs base.

    python scripts/perfbench_gate.py             # this checkout only
    python scripts/perfbench_gate.py BASE_DIR    # also against BASE_DIR

Runs ``perfbench/run.py`` with ``FLAGS`` once per ``BENCHMARK.json``
workload. Every run must be correct with 0 failed operations, and on
``FLOOR_WORKLOADS`` the head must keep ``fast.sim_pps / pure.sim_pps``
at ``FLOOR`` or above. With ``BASE_DIR``, a checkout of the base commit,
each workload runs ``PAIRS`` head/base pairs on this host instead, the
side that goes first alternating, and the base side runs its own
``perfbench/run.py``. The gate then fails when the head's median of an
end-to-end metric is worse than the base median by more than the bound
``BENCHMARK.json`` gives that metric.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# At 5 s, multi-core's 100 samples per backend (9 passes) can outlast
# perfbench's 3 x --seconds hard stop on Python 3.9, leaving p90 unmeasured.
FLAGS = ("--seed", "0", "--seconds", "10", "--trace", "0")
# Fewer pairs let host noise through: at 3, one of 4 quiet A/A runs on
# Python 3.9 read setup_s 1.25x against its 0.25 bound.
PAIRS = 5
FLOOR = 2.0
FLOOR_WORKLOADS = ("single-core", "multi-core")


def perfbench(checkout: Path, workload: str, errors: list) -> dict:
    """One run's end-to-end metrics; a failed operation is an error."""
    # Each checkout must import its own src/, never the caller's.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *FLAGS],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s %s: correct=%s failed=%s"
                      % (checkout, workload, result["correct"], result["failed"]))
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv) -> int:
    if len(argv) > 1:
        sys.exit("usage: perfbench_gate.py [BASE_DIR]")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = Path(argv[0]).resolve() if argv else None
    errors, rows = [], []
    for workload in (entry["name"] for entry in declared["workloads"]):
        runs = {ROOT: [], base: []}
        for pair in range(PAIRS if base else 1):
            sides = [ROOT, base] if base else [ROOT]
            for checkout in sides[::-1] if pair % 2 else sides:
                runs[checkout].append(perfbench(checkout, workload, errors))
        for metrics in runs[ROOT] if workload in FLOOR_WORKLOADS else ():
            ratio = metrics["fast.sim_pps"] / metrics["pure.sim_pps"]
            print("%s: fast.sim_pps / pure.sim_pps = %.2f (floor %.1f)"
                  % (workload, ratio, FLOOR))
            if ratio < FLOOR:
                errors.append("%s: fast/pure %.2f below %.1f" % (workload, ratio, FLOOR))
        for metric in declared["end_to_end"] if base else ():
            name, bound = metric["name"], metric["bound"]
            # A run that could not measure a metric already reported
            # correct=false; compare what both sides measured.
            head, was = ([run[name] for run in runs[side] if name in run]
                         for side in (ROOT, base))
            if not (head and was):
                errors.append("%s %s: not measured" % (workload, name))
                continue
            head, was = statistics.median(head), statistics.median(was)
            ratio = head / was
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            rows.append((workload, name, was, head, ratio, bound,
                         "ok" if worse <= bound else "WORSE"))
    if rows:
        print("%-12s %-18s %12s %12s %7s %6s  %s"
              % ("workload", "metric", "base", "head", "ratio", "bound", "verdict"))
        for row in rows:
            print("%-12s %-18s %12.6g %12.6g %7.3f %6.2f  %s" % row)
    for line in errors:
        print("FAIL: %s" % line)
    failed = errors or any(row[-1] != "ok" for row in rows)
    print("perfbench gate: %s" % ("FAIL" if failed else "pass"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
