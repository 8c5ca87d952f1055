#!/usr/bin/env python3
"""Simulator benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload single-core --seed 0 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it builds the compiled core
with ``scripts/build_fastcore.py`` when that is stale, refuses to
measure unless ``backend="fast"`` resolves to ``fast-c``, times the
workload with tracing off (``--trace 0``, the end-to-end metrics) or
splits it by layer in a separate traced run (``--trace 1``), checks
every trial against the pure oracle, and prints every metric declared
in ``BENCHMARK.json`` with its unit. The last stdout line is the JSON
result; a per-run record (seed, Python, flavour, nproc, calibration,
sample counts, failures) goes to ``.bench_build/perfbench/``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_SCRIPT = ROOT / "scripts" / "build_fastcore.py"
DECLARED = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("single-core", "multi-core", "observed", "sweep")
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ensure_corec() -> float:
    """Build ``_corec`` through the repo's build script when stale;
    returns the build's wall seconds (0 when it was fresh)."""
    spec = importlib.util.spec_from_file_location("build_fastcore", BUILD_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    if not script.corec_stale():
        return 0.0
    start = time.perf_counter()
    script.build_corec(verbose=False)
    return time.perf_counter() - start


def cold_setups(pool_jobs: int, count: int) -> list:
    """``setup_s`` samples in reference seconds, each from a fresh
    interpreter."""
    from timing import spin, to_reference

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    samples = []
    for _ in range(count):
        before = [spin() for _ in range(3)]
        done = subprocess.run(
            [sys.executable, str(HERE / "boot.py"), "--pool", str(pool_jobs)],
            cwd=str(ROOT),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds = json.loads(done.stdout.splitlines()[-1])["setup_s"]
        samples.append(to_reference(seconds, before + [spin() for _ in range(3)]))
    return samples


def calibrate_ms(repeats: int = 5) -> float:
    """Best-of wall time of a fixed 200k-iteration spin, so records from
    different hosts can be put side by side."""
    from timing import spin

    return min(spin(200_000) for _ in range(repeats)) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: str, seed: int, seconds: float, pins: dict, jobs: int):
    """End-to-end values (tracing off), plus attempted/failed/failures."""
    import grids
    import measure

    oracle = measure.Oracle(pins, seed)
    info = {}
    if workload == "sweep":
        from boot import boot_pool, stop_pool

        sweep = measure.Sweep(seed, jobs, OUT / "sweep")
        try:
            boot_pool(jobs)
            primer = sweep.fresh_cache()
            _, pairs = sweep.run(primer)
            sweep.drop(primer)
            items = measure.sweep_items(pairs)
            passes = measure.time_trials(
                items, oracle, budget_s=0.5 * seconds, max_s=2 * seconds
            )
            tried, bad = measure.check_sweep(oracle, items, pairs)
            sweeps = measure.timed_sweeps(sweep, oracle, items, budget_s=0.5 * seconds)
        finally:
            stop_pool()
            shutil.rmtree(OUT / "sweep", ignore_errors=True)
        values = measure.trial_metrics(items, passes)
        if sweeps["cold_s"]:
            values["sweep_s"] = statistics.median(sweeps["cold_s"])
        attempted = passes.attempted + tried + sweeps["attempted"]
        failed = passes.failed + bad + sweeps["failed"]
        info["sweeps"] = {"cold_s": sweeps["cold_s"], "warm_s": sweeps["warm_s"]}
    else:
        items = grids.SERIAL_GRIDS[workload](seed)
        # Untimed: lazy imports and first-call set-up, once per process.
        for side in measure.SIDES:
            measure.run_trial(items[0][1].replace(backend=side))
        passes = measure.time_trials(
            items, oracle, budget_s=seconds, max_s=3 * seconds
        )
        values = measure.trial_metrics(items, passes)
        values["sweep_s"] = measure.grid_seconds(items, passes)
        attempted, failed = passes.attempted, passes.failed
    info.update(
        trials=len(items),
        passes=passes.passes,
        n={side: len(passes.of(side)) for side in measure.SIDES},
        spin_ms=[min(passes.spins) * 1e3, statistics.median(passes.spins) * 1e3],
    )
    return values, attempted, failed, oracle.failures, info


def stop_children() -> None:
    """Leave no process behind: stop the sweep's pool and the resource
    tracker, then end and reap any other child still running."""
    if "repro.experiments.engine" in sys.modules:
        from boot import stop_pool

        stop_pool()
    tasks = Path("/proc/%d/task" % os.getpid())
    try:
        left = {
            int(pid)
            for task in tasks.iterdir()
            for pid in (task / "children").read_text().split()
        }
    except OSError:
        return  # this kernel does not list children
    for pid in left:
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return measure_and_report(args)
    finally:
        stop_children()


def measure_and_report(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file() or not BUILD_SCRIPT.is_file():
        print("perfbench: no program to measure under %s" % ROOT, file=sys.stderr)
        return 2
    with open(DECLARED, encoding="utf-8") as handle:
        declared = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[kind]}
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / "tmp"
    scratch.mkdir(exist_ok=True)
    # Compiler and library temporaries stay inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)

    build_s = ensure_corec()
    sys.path.insert(0, str(SRC))
    from repro._fastcore import FASTCORE_ERROR, FASTCORE_KIND

    if FASTCORE_KIND != "fast-c":
        print(
            "perfbench: refusing to measure: backend='fast' resolved %r, "
            "not 'fast-c' (%s)" % (FASTCORE_KIND, FASTCORE_ERROR),
            file=sys.stderr,
        )
        return 3
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)["pins"]
    jobs = len(os.sched_getaffinity(0))
    calib = calibrate_ms()
    if args.trace:
        import layers

        values, attempted, failed, failures, info = layers.traced_run(
            args.workload, args.seed, args.seconds, pins, jobs, OUT
        )
        values["host.calib_ms"] = calib
    else:
        setups = cold_setups(jobs if args.workload == "sweep" else 0, SETUP_PROBES)
        values, attempted, failed, failures, info = timed_run(
            args.workload, args.seed, args.seconds, pins, jobs
        )
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        info["setup_samples_s"] = setups

    missing = sorted(set(units) - set(values))
    if missing:
        failures.append("metrics not measured: %s" % ", ".join(missing))
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
            if name in values
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "flavour": FASTCORE_KIND,
        "nproc": jobs,
        "host.calib_ms": calib,
        "build_s": build_s,
        "info": info,
        "failures": failures,
        "result": result,
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    path = records / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(
        "perfbench %s seed=%d trace=%d: python %s, %s, nproc %d, "
        "calib %.2f ms, _corec build %.2f s"
        % (args.workload, args.seed, args.trace, record["python"],
           FASTCORE_KIND, jobs, calib, build_s)
    )
    if "n" in info:
        print("  timed trials: %s over %d passes of %d specs; spin %.2f ms "
              "best, %.2f ms median"
              % (", ".join("%s n=%d" % kv for kv in info["n"].items()),
                 info["passes"], info["trials"], *info["spin_ms"]))
    for name, metric in result["metrics"].items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for line in failures[:20]:
        print("  FAILED: %s" % line)
    print("  record: %s" % path.relative_to(ROOT))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
