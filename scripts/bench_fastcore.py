#!/usr/bin/env python
"""Fast-core backend benchmark: compiled event loop vs the pure oracle.

Emits ``BENCH_fastcore.json``. Every comparison asserts identity before
it reports a speedup — the fast core must fire the exact same event
sequence (per-fire checksum over the virtual clock), and full trials
must produce byte-identical ``TrialResult`` dicts — so a speedup can
never come from computing something different.

Three measurements:

* **event loop** — events/sec on the four bench_wheel workload shapes
  (timer chains, schedule/cancel churn, callout tables, sparse periodic
  ticks), ``repro._fastcore.FastCore`` vs the pure-python ``Simulator``.
  This is the headline number: the compiled core's target is >=5x on
  the scheduler-bound workloads (the ``timers`` shape is dominated by
  the fixed per-callback Python call cost and is reported, not gated).
* **cancel storm** — 200k far-future timers scheduled then cancelled:
  tombstone + amortised-compaction cost on the compiled core.
* **trials** — end-to-end ``run_trial`` wall clock, ``backend=fast`` vs
  ``backend=pure``. Trials spend most of their time in the packet-path
  Python callbacks, so this ratio is expected to be modest; it is the
  honest end-to-end number, while the event-loop ratio isolates what
  the C core actually replaced.

The workload builders and the frozen pre-wheel heap core are imported
from ``scripts/bench_wheel.py`` so both benchmarks measure the same
shapes; ``--check-pure`` re-runs the pure-vs-frozen comparison here as
a cheap guard that the pure oracle itself has not regressed.

Usage::

    PYTHONPATH=src python scripts/bench_fastcore.py           # full run
    PYTHONPATH=src python scripts/bench_fastcore.py --smoke   # CI-sized
    python scripts/bench_fastcore.py --smoke --check-speedup 3.0 \
        --check-pure 0.97
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench_wheel import (  # noqa: E402
    _FrozenHeapSimulator,
    _noop,
    _wl_callouts,
    _wl_chains,
    _wl_churn,
    _wl_timers,
)
from repro._fastcore import FASTCORE_ERROR, FASTCORE_KIND, FastCore  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402

#: What ``backend="fast"`` builds: the C core, or the pure ``Simulator``
#: where the extension is absent (``--require-compiled`` refuses that).
_FAST = FastCore or Simulator

#: Scheduler-bound workloads — the gate set. ``timers`` is so sparse
#: that per-callback Python call overhead dominates both cores; it is
#: measured and reported but kept out of the gated geomean.
_GATED = ("chains", "churn", "callouts")

_WORKLOADS = [
    ("chains", _wl_chains, None),
    ("churn", _wl_churn, None),
    ("callouts", _wl_callouts, None),
    ("timers", _wl_timers, "deadline"),
]


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _run_event_workload(name, build, total_fires, repeats, cores, deadline=None):
    """bench_wheel's interleaved best-of protocol: one checksummed verify
    pass per core (identical (fired, now, checksum) required), then
    timed passes with minimal callbacks."""
    verify = {}
    for label, factory in cores:
        sim = factory()
        acc = [0]
        build(sim, total_fires, acc)
        sim.run(deadline)
        verify[label] = (sim.stats["fired"], sim.now, acc[0])
    labels = [label for label, _ in cores]
    if verify[labels[0]] != verify[labels[1]]:
        raise SystemExit(
            "FATAL: %s: %s/%s diverged on (fired, now, checksum): %r != %r"
            % (name, labels[0], labels[1], verify[labels[0]], verify[labels[1]])
        )
    best = {label: float("inf") for label in labels}
    for _ in range(repeats):
        for label, factory in cores:
            sim = factory()
            build(sim, total_fires, None)
            start = time.perf_counter()
            sim.run(deadline)
            elapsed = time.perf_counter() - start
            best[label] = min(best[label], elapsed)
            if (sim.stats["fired"], sim.now) != verify[label][:2]:
                raise SystemExit(
                    "FATAL: %s: timed pass diverged from verify pass" % name
                )
    fired = verify[labels[0]][0]
    fast, base = labels
    return {
        "workload": name,
        "events": fired,
        "repeats": repeats,
        "%s_s" % fast: round(best[fast], 6),
        "%s_s" % base: round(best[base], 6),
        "%s_events_per_sec" % fast: round(fired / best[fast]),
        "%s_events_per_sec" % base: round(fired / best[base]),
        "speedup": round(best[base] / best[fast], 3),
    }


def bench_event_loop(total_fires, repeats):
    cores = (("fast", _FAST), ("pure", Simulator))
    workloads = []
    for name, build, kind in _WORKLOADS:
        deadline = total_fires * 9_300 if kind == "deadline" else None
        workloads.append(
            _run_event_workload(
                name, build, total_fires, repeats, cores, deadline=deadline
            )
        )
    gated = [w["speedup"] for w in workloads if w["workload"] in _GATED]
    return {
        "workloads": workloads,
        "geomean_speedup": round(_geomean([w["speedup"] for w in workloads]), 3),
        "gated_geomean_speedup": round(_geomean(gated), 3),
        "gated_workloads": list(_GATED),
    }


def bench_cancel_storm(timers, repeats=3):
    # Interleaved best-of with the collector parked: single-shot passes
    # are dominated by GC pauses at storm sizes, same protocol as
    # bench_wheel.
    out = {"fast_s": float("inf"), "pure_s": float("inf")}
    for _ in range(repeats):
        for label, factory in (("fast", _FAST), ("pure", Simulator)):
            sim = factory()
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                events = [sim.schedule(10**9 + i, _noop) for i in range(timers)]
                for event in events:
                    sim.cancel(event)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            out[label + "_s"] = round(min(out[label + "_s"], elapsed), 6)
            out[label + "_resident"] = sim.stats["heap_size"]
            if sim.stats["pending"] != 0:
                raise SystemExit("FATAL: cancel storm left pending events")
            del sim, events
    if out["fast_resident"] != out["pure_resident"]:
        raise SystemExit(
            "FATAL: cancel storm resident mismatch: fast=%d pure=%d"
            % (out["fast_resident"], out["pure_resident"])
        )
    out["timers"] = timers
    out["speedup"] = round(out["pure_s"] / out["fast_s"], 3)
    return out


def bench_trials(timing, repeats, smoke):
    from repro.core import variants
    from repro.experiments.harness import run_trial
    from repro.experiments.spec import TrialSpec
    from repro.experiments.results import trial_to_dict

    cells = [
        ("unmodified", variants.unmodified, 12_000),
        ("polling-q5", lambda: variants.polling(quota=5), 12_000),
    ]
    if not smoke:
        cells += [
            ("unmodified", variants.unmodified, 5_000),
            ("polling-q5", lambda: variants.polling(quota=5), 5_000),
        ]

    # Untimed warmup so imports/code-object warm-up are not charged to
    # whichever backend runs first.
    run_trial(TrialSpec(variants.unmodified(), 1_000, duration_s=0.01,
                        warmup_s=0.0, backend="pure"))
    run_trial(TrialSpec(variants.unmodified(), 1_000, duration_s=0.01,
                        warmup_s=0.0, backend="fast"))

    def comparable(result):
        data = trial_to_dict(result)
        data.pop("backend")
        return data

    rows = []
    for name, make_config, rate in cells:
        fast_best = pure_best = float("inf")
        fast_dict = pure_dict = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_trial(TrialSpec.from_kwargs(
                make_config(), rate, backend="fast", **timing))
            fast_best = min(fast_best, time.perf_counter() - start)
            fast_dict = comparable(result)

            start = time.perf_counter()
            result = run_trial(TrialSpec.from_kwargs(
                make_config(), rate, backend="pure", **timing))
            pure_best = min(pure_best, time.perf_counter() - start)
            pure_dict = comparable(result)
        if fast_dict != pure_dict:
            raise SystemExit(
                "FATAL: trial %s @ %d pps diverged between fast and pure"
                % (name, rate)
            )
        rows.append(
            {
                "variant": name,
                "rate_pps": rate,
                "fast_s": round(fast_best, 4),
                "pure_s": round(pure_best, 4),
                "speedup": round(pure_best / fast_best, 3),
            }
        )
    return {
        "timing": timing,
        "repeats": repeats,
        "cells": rows,
        "geomean_speedup": round(_geomean([r["speedup"] for r in rows]), 3),
    }


def bench_pure_vs_frozen(total_fires, repeats):
    """Guard: the pure oracle itself must not regress vs the frozen
    pre-wheel heap core (bench_wheel gates this at 1.0; the CI floor
    here is 0.97 to tolerate shared-runner noise in a smoke run)."""
    cores = (("pure", Simulator), ("frozen", _FrozenHeapSimulator))
    workloads = []
    for name, build, kind in _WORKLOADS:
        deadline = total_fires * 9_300 if kind == "deadline" else None
        workloads.append(
            _run_event_workload(
                name, build, total_fires, repeats, cores, deadline=deadline
            )
        )
    return {
        "workloads": workloads,
        "geomean_speedup": round(_geomean([w["speedup"] for w in workloads]), 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (seconds, not minutes)"
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_fastcore.json"
        ),
        help="output JSON path",
    )
    parser.add_argument(
        "--check-speedup",
        type=float,
        metavar="FLOOR",
        help="fail if the gated event-loop geomean (fast vs pure) is "
        "below FLOOR (CI floor: 3.0; the full-run target is 5.0)",
    )
    parser.add_argument(
        "--check-pure",
        type=float,
        metavar="FLOOR",
        help="also compare pure vs the frozen heap core and fail below "
        "FLOOR (CI uses 0.97)",
    )
    parser.add_argument(
        "--require-compiled",
        action="store_true",
        help="fail unless the compiled C extension loaded (CI sets this "
        "after building; without it the fast side times the pure "
        "Simulator and the speedup gate would be meaningless)",
    )
    args = parser.parse_args(argv)

    if args.require_compiled and FASTCORE_KIND != "fast-c":
        raise SystemExit(
            "FATAL: compiled fast core required but resolved %r (%s)"
            % (FASTCORE_KIND, FASTCORE_ERROR)
        )

    if args.smoke:
        fires = 120_000
        loop_repeats = 2
        storm_timers = 20_000
        timing = dict(duration_s=0.08, warmup_s=0.03, seed=0)
        repeats = 2
    else:
        fires = 800_000
        loop_repeats = 3
        storm_timers = 200_000
        timing = dict(duration_s=0.4, warmup_s=0.1, seed=0)
        repeats = 4

    print(
        "fastcore benchmark (%s mode, backend flavour %s)"
        % ("smoke" if args.smoke else "full", FASTCORE_KIND)
    )
    report = {
        "benchmark": "fastcore",
        "mode": "smoke" if args.smoke else "full",
        "fastcore_kind": FASTCORE_KIND,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "event_loop": bench_event_loop(fires, loop_repeats),
        "cancel_storm": bench_cancel_storm(storm_timers),
        "trials": bench_trials(timing, repeats, args.smoke),
    }
    if args.check_pure is not None:
        report["pure_vs_frozen"] = bench_pure_vs_frozen(fires, loop_repeats)

    loop = report["event_loop"]
    print(
        "event loop: gated geomean %.2fx, all-workloads %.2fx vs pure (%s)"
        % (
            loop["gated_geomean_speedup"],
            loop["geomean_speedup"],
            ", ".join(
                "%s %.2fx" % (w["workload"], w["speedup"])
                for w in loop["workloads"]
            ),
        )
    )
    storm = report["cancel_storm"]
    print(
        "cancel storm: %.2fx vs pure (%d timers, %d resident)"
        % (storm["speedup"], storm["timers"], storm["fast_resident"])
    )
    print(
        "trials:     geomean %.2fx end-to-end (backend=fast vs backend=pure)"
        % report["trials"]["geomean_speedup"]
    )

    if args.check_speedup is not None:
        current = loop["gated_geomean_speedup"]
        print(
            "speedup gate: %.2fx vs floor %.2fx" % (current, args.check_speedup)
        )
        if current < args.check_speedup:
            raise SystemExit(
                "FATAL: fast-core gated speedup %.2fx below floor %.2fx"
                % (current, args.check_speedup)
            )
    if args.check_pure is not None:
        current = report["pure_vs_frozen"]["geomean_speedup"]
        print("pure gate:    %.2fx vs floor %.2fx" % (current, args.check_pure))
        if current < args.check_pure:
            raise SystemExit(
                "FATAL: pure backend %.2fx below floor %.2fx vs the frozen "
                "heap core" % (current, args.check_pure)
            )

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
