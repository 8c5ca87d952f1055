"""The trial grids behind each workload.

The grids are fixed; ``--seed`` only becomes every spec's ``seed``, so
two seeds run the same drivers, rates and traffic shapes and differ in
jitter and arrival draws, never in what the workload covers.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import variants
from repro.experiments import TrialSpec
from repro.hw.machine import STEERING_RSS, MachineSpec

#: Simulated warm-up and measurement window of every trial (seconds).
#: Short trials give each run hundreds of samples per backend.
WARMUP_S = 0.03
WINDOW_S = 0.07

#: Below, near and above the paper's MLFRR (about 5k pkt/s).
SINGLE_CORE_RATES = (3_000, 6_000, 12_000)
MULTI_CORE_RATES = (6_000, 9_000, 12_000)
_SHAPES = ("constant", "bursty", "poisson")

SERIAL_WORKLOADS = ("single-core", "multi-core", "observed")
WORKLOADS = SERIAL_WORKLOADS + ("sweep",)

Grid = List[Tuple[str, TrialSpec]]


def _spec(config, rate, seed, **kwargs) -> TrialSpec:
    return TrialSpec(
        config, rate, duration_s=WINDOW_S, warmup_s=WARMUP_S, seed=seed, **kwargs
    )


def single_core(seed: int) -> Grid:
    """Every driver on the paper's machine, observers off."""
    drivers = [
        ("unmodified", variants.unmodified(), {}),
        ("unmodified+screend", variants.unmodified(screend=True), {}),
        ("modified-no-polling", variants.modified_no_polling(), {}),
        ("polling-q10", variants.polling(quota=10), {}),
        (
            "polling-q10+screend+feedback",
            variants.polling(quota=10, screend=True, feedback=True),
            {},
        ),
        (
            "polling-q10-limit50+compute",
            variants.polling(quota=10, cycle_limit=0.5),
            {"with_compute": True},
        ),
        ("high_ipl-q10", variants.high_ipl(quota=10), {}),
        ("clocked", variants.clocked(), {}),
        ("hybrid-q10", variants.hybrid(quota=10), {}),
    ]
    grid: Grid = []
    for d, (name, config, extra) in enumerate(drivers):
        for r, rate in enumerate(SINGLE_CORE_RATES):
            shape = _SHAPES[(d + r) % len(_SHAPES)]
            grid.append(
                ("%s@%d/%s" % (name, rate, shape),
                 _spec(config, rate, seed, workload=shape, **extra))
            )
    # Legitimate traffic under a SYN flood, with the closed-loop
    # mitigation controller armed.
    for name, config in (
        ("polling-q10+mitigate", variants.polling(quota=10, mitigate=True)),
        ("clocked+mitigate", variants.clocked(mitigate=True)),
    ):
        grid.append(
            ("%s@3000+9000/composite" % name,
             _spec(config, 3_000, seed, workload="composite",
                   attack_rate_pps=9_000.0))
        )
    return grid


def multi_core(seed: int) -> Grid:
    """Four cores with RSS steering; polling drivers get isolated cores."""
    shared = MachineSpec(cores=4, steering=STEERING_RSS)
    isolated = MachineSpec(cores=4, steering=STEERING_RSS, isolate_polling=True)
    drivers = [
        ("unmodified", variants.unmodified(), shared),
        ("polling-q10", variants.polling(quota=10), isolated),
        ("hybrid-q10", variants.hybrid(quota=10), isolated),
        ("clocked", variants.clocked(), shared),
    ]
    grid: Grid = []
    for d, (name, config, machine) in enumerate(drivers):
        for r, rate in enumerate(MULTI_CORE_RATES):
            shape = ("constant", "poisson")[(d + r) % 2]
            grid.append(
                ("%s/4c@%d/%s" % (name, rate, shape),
                 _spec(config, rate, seed, workload=shape, machine=machine))
            )
    return grid


def observed(seed: int) -> Grid:
    """Single-core trials with the trace ring and the watchdog armed;
    every other one also runs the ``lossy-nic`` fault plan, so teardown
    reconciliation runs."""
    drivers = [
        ("unmodified", variants.unmodified()),
        ("polling-q10", variants.polling(quota=10)),
        ("high_ipl-q10", variants.high_ipl(quota=10)),
        ("clocked", variants.clocked()),
        ("hybrid-q10", variants.hybrid(quota=10)),
    ]
    grid: Grid = []
    for d, (name, config) in enumerate(drivers):
        for r, rate in enumerate(SINGLE_CORE_RATES):
            shape = ("constant", "poisson")[(d + r) % 2]
            faults = (d + r) % 2 == 0
            extra = {"fault_plan": "lossy-nic"} if faults else {}
            grid.append(
                ("%s@%d/%s+trace+watchdog%s"
                 % (name, rate, shape, "+lossy-nic" if faults else ""),
                 _spec(config, rate, seed, workload=shape, trace=True,
                       watchdog=True, **extra))
            )
    return grid


SERIAL_GRIDS = {
    "single-core": single_core,
    "multi-core": multi_core,
    "observed": observed,
}


def sweep_kwargs(seed: int) -> dict:
    """Trial keywords the ``sweep`` workload passes to ``figure_6_3``."""
    return {
        "duration_s": WINDOW_S,
        "warmup_s": WARMUP_S,
        "seed": seed,
        "backend": "fast",
    }


def offered_packets(spec: TrialSpec) -> float:
    """Packets every generator offers over warm-up plus window.

    This is a property of the input, not a count the program makes.
    """
    rate = spec.rate_pps
    if spec.workload == "composite":
        attack = spec.attack_rate_pps
        rate += attack if attack is not None else 4 * spec.rate_pps
    return rate * (spec.warmup_s + spec.duration_s)
