#!/usr/bin/env python
"""Regenerate the golden TrialResult fixture used by the determinism tests.

The fixture pins ``run_trial`` output — every field, including the
``drops`` and ``counters`` dicts — for a matrix of kernel variants,
workloads and rates at fixed seeds. The packet fast path (pooling,
callback generators, NIC batching) must keep these bit-identical; any
intentional semantic change must regenerate this file and explain why.

It also writes the second fixture, ``golden_traced.json``: hybrid and
cores=4 RSS-isolated cells, every one run with a caller-owned trace
ring, pinning the whole trial (timeline included) plus a digest of the
raw record stream and the interned site names.

Usage::

    PYTHONPATH=src python scripts/gen_golden_trials.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.results import trial_to_dict
from repro.experiments.spec import TrialSpec
from repro.trace.buffer import TraceBuffer

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "experiments"
OUTPUT = FIXTURES / "golden_trials.json"
TRACED_OUTPUT = FIXTURES / "golden_traced.json"

#: The trial matrix: every kernel variant x every workload, at a light
#: rate and an overload (livelock-regime) rate, two seeds.
VARIANTS = {
    "unmodified": variants.unmodified,
    "polling": variants.polling,
    "high_ipl": variants.high_ipl,
    "clocked": variants.clocked,
}
WORKLOADS = ("constant", "poisson", "bursty")
RATES = (3_000, 12_000)
SEEDS = (0, 7)
TIMING = dict(duration_s=0.08, warmup_s=0.03)


#: TrialResult fields that postdate the untraced fixture. Plain trials
#: leave them inert (the determinism test asserts so), and the fixture
#: leaves them out, so regenerating an unchanged matrix is a no-op.
POSTDATING = ("backend", "faults", "slo", "timeline", "watchdog")


def trial_key(variant, workload, rate, seed):
    return "%s|%s|%d|%d" % (variant, workload, rate, seed)


def generate():
    golden = {}
    for variant_name, factory in VARIANTS.items():
        for workload in WORKLOADS:
            for rate in RATES:
                for seed in SEEDS:
                    result = run_trial(TrialSpec.from_kwargs(
                        factory(),
                        rate,
                        seed=seed,
                        workload=workload,
                        **TIMING,
                    ))
                    data = asdict(result)
                    for field in POSTDATING:
                        del data[field]
                    golden[trial_key(variant_name, workload, rate, seed)] = data
    return golden


#: The traced cells: the hybrid driver on the paper's machine and every
#: driver on a cores=4 RSS machine with isolated polling cores, with the
#: watchdog, a fault plan, and one livelocked cell whose ring is small
#: enough to wrap.
SMP4 = {"cores": 4, "steering": "rss", "isolate_polling": True}
TRACED_CELLS = [
    # driver, machine, workload, rate, seed, fault plan, ring capacity
    ("hybrid", None, "constant", 3_000, 0, None, None),
    ("hybrid", None, "bursty", 12_000, 7, "lossy-nic", None),
    ("hybrid", SMP4, "poisson", 12_000, 0, None, None),
    ("unmodified", None, "poisson", 16_000, 0, None, 4_096),
    ("unmodified", SMP4, "bursty", 12_000, 7, None, None),
    ("polling", SMP4, "constant", 12_000, 0, "lossy-nic", None),
    ("high_ipl", SMP4, "poisson", 3_000, 7, None, None),
    ("clocked", SMP4, "bursty", 12_000, 0, None, None),
]


def traced_cell(driver, machine, workload, rate, seed, plan, capacity):
    """The fixture key and the JSON-able spec of one traced cell."""
    key = "%s|%s|%s|%d|%d|%s|%s" % (
        driver,
        "smp4" if machine else "up",
        workload,
        rate,
        seed,
        plan or "clean",
        capacity or "default",
    )
    return key, {
        "driver": driver,
        "machine": machine,
        "workload": workload,
        "rate_pps": rate,
        "seed": seed,
        "fault_plan": plan,
        "capacity": capacity,
    }


def run_traced(cell, backend="pure"):
    """Run one traced cell; returns ``(trial dict minus backend, ring)``."""
    buffer = (
        TraceBuffer(cell["capacity"]) if cell["capacity"] else TraceBuffer()
    )
    result = run_trial(TrialSpec(
        getattr(variants, cell["driver"])(),
        cell["rate_pps"],
        seed=cell["seed"],
        workload=cell["workload"],
        machine=cell["machine"],
        fault_plan=cell["fault_plan"],
        watchdog=True,
        trace=buffer,
        backend=backend,
        **TIMING,
    ))
    data = trial_to_dict(result)
    data.pop("backend")
    return data, buffer


def records_digest(buffer) -> str:
    """sha256 over the retained records and the site-name table."""
    payload = json.dumps([buffer.records(), buffer.site_names])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def generate_traced():
    golden = {}
    for row in TRACED_CELLS:
        key, cell = traced_cell(*row)
        trial, buffer = run_traced(cell)
        golden[key] = {
            "cell": cell,
            "trial": trial,
            "recorded": buffer.recorded,
            "records_sha256": records_digest(buffer),
        }
    return golden


def main():
    for golden, output in (
        (generate(), OUTPUT),
        (generate_traced(), TRACED_OUTPUT),
    ):
        output.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print("wrote %d golden trials to %s" % (len(golden), output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
