"""Seeded chaos/soak harness: fuzzed trials, differential checking.

The golden-determinism suite proves a *fixed* matrix of trials never
changes. This module probes everything that matrix does not: it fuzzes
reproducible trial cases — kernel variant x workload (including the
adversarial generators) x rate x machine (core count, IRQ steering,
isolated polling cores) x a randomly generated
:class:`~repro.faults.FaultPlan` x trace ring on or off x the receive
knobs (softirq or thread IP input, batch ring pulls, NAPI interrupt
coalescing) — and runs each case three ways:

1. **reference**: pure backend with the invariant sanitizer attached
   and end-of-trial teardown reconciliation (catches ownership leaks,
   queue-invariant violations, unbalanced pool books);
2. **pure**: plain pure-backend run;
3. **fast**: plain compiled-backend run (:mod:`repro._fastcore`); a
   host without the C extension skips this leg, because ``fast`` would
   re-run the pure oracle there.

All three must produce bit-identical :class:`TrialResult`\\ s (modulo
the ``backend`` attribution field), and the reference run's teardown
must balance to zero leaked packets. Any violation — a crash, a
differential mismatch, a leak — is recorded with the exact ``(seed,
index)`` pair that reproduces it: ``replay_case(seed, index)`` (or
``repro-livelock chaos --seed S --replay I``) re-derives the identical
case from the seed alone, because every fuzzing decision is drawn from
``derive_seed(seed, "chaos:<index>")`` and nothing else.

This is deliberately a *soak* harness: it trades the golden suite's
fixed assertions for breadth, and its budget is a dial (CI runs a small
smoke budget; a nightly soak can run thousands of cases).
"""

from __future__ import annotations

import random
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from .. import _fastcore
from ..core import variants
from ..faults import FaultPlan
from ..hw.machine import STEERING_POLICIES, MachineSpec
from ..kernel.config import IP_LAYER_SOFTIRQ, IP_LAYER_THREAD
from ..sim.backend import FAST, PURE
from ..sim.randomness import derive_seed
from .harness import _run_trial_impl
from .spec import (
    WORKLOAD_BURSTY,
    WORKLOAD_COMPOSITE,
    WORKLOAD_CONSTANT,
    WORKLOAD_FLASHCROWD,
    WORKLOAD_POISSON,
    WORKLOAD_SYNFLOOD,
)

#: Kernel variants the fuzzer draws from — every driver discipline, with
#: and without the closed-loop mitigation controller.
CHAOS_VARIANTS = {
    "unmodified": lambda: variants.unmodified(),
    "polling": lambda: variants.polling(),
    "polling-inf": lambda: variants.polling(quota=None),
    "polling-mitigate": lambda: variants.polling(quota=None, mitigate=True),
    "clocked": lambda: variants.clocked(),
    "clocked-mitigate": lambda: variants.clocked(mitigate=True),
    "high-ipl": lambda: variants.high_ipl(),
    "hybrid": lambda: variants.hybrid(),
}

CHAOS_WORKLOADS = (
    WORKLOAD_CONSTANT,
    WORKLOAD_POISSON,
    WORKLOAD_BURSTY,
    WORKLOAD_SYNFLOOD,
    WORKLOAD_FLASHCROWD,
    WORKLOAD_COMPOSITE,
)

CHAOS_RATES = (2_000.0, 5_000.0, 8_000.0, 12_000.0)

CHAOS_CORES = (1, 2, 4)

#: NAPI interrupt-coalescing bounds (µs); 0 is pure schedule-on-interrupt.
CHAOS_COALESCE_US = (0.0, 0.0, 20.0, 100.0)


@dataclass(frozen=True)
class ChaosCase:
    """One fuzzed trial description (pure data, fully seed-derived)."""

    index: int
    variant: str
    workload: str
    rate_pps: float
    trial_seed: int
    duration_s: float
    warmup_s: float
    attack_rate_pps: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    machine: Optional[MachineSpec] = None
    #: Arm the trace ring (the result then carries the timeline).
    trace: bool = False
    #: Receive knobs: the classic kernel's IP input context, batch ring
    #: pulls (clocked and high-IPL drivers) and the NAPI coalescing
    #: bound, which rides on ``machine``.
    ip_layer_mode: str = IP_LAYER_THREAD
    rx_batch_pull: bool = False
    coalesce_us: float = 0.0

    def describe(self) -> str:
        bits = [
            "#%d" % self.index,
            self.variant,
            self.workload,
            "%.0fpps" % self.rate_pps,
            "seed=%d" % self.trial_seed,
        ]
        if self.attack_rate_pps is not None:
            bits.append("attack=%.0fpps" % self.attack_rate_pps)
        if self.fault_plan is not None:
            armed = [
                name
                for name, value in asdict(self.fault_plan).items()
                if name != "seed" and value
            ]
            bits.append("faults[%s]" % ",".join(armed))
        machine = self.machine
        if machine is not None:
            bits.append(
                "cores=%d/%s%s"
                % (
                    machine.cores,
                    machine.steering,
                    "/isolate" if machine.isolate_polling else "",
                )
            )
        if self.trace:
            bits.append("trace")
        if self.ip_layer_mode != IP_LAYER_THREAD:
            bits.append("ip=%s" % self.ip_layer_mode)
        if self.rx_batch_pull:
            bits.append("batch-pull")
        if self.coalesce_us:
            bits.append("coalesce=%gus" % self.coalesce_us)
        return " ".join(bits)


# ----------------------------------------------------------------------
# Fuzzers (all decisions from the passed rng — nothing else)
# ----------------------------------------------------------------------

#: Each axis is (field overrides drawn from rng). Kept moderate: chaos
#: wants trials that *stress* the kernel, not ones that degenerate into
#: an all-faults wall where nothing flows at all.
_FAULT_AXES = (
    lambda rng: {"rx_irq_drop_prob": round(rng.uniform(0.02, 0.15), 3)},
    lambda rng: {"rx_irq_duplicate_prob": round(rng.uniform(0.02, 0.08), 3)},
    lambda rng: {"spurious_rx_irq_rate_pps": float(rng.randrange(100, 800))},
    lambda rng: {
        "rx_stall_mean_interval_ns": rng.randrange(5, 50) * 1_000_000,
        "rx_stall_duration_ns": rng.randrange(500, 3_000) * 1_000,
    },
    lambda rng: {
        "tx_spike_prob": round(rng.uniform(0.005, 0.02), 4),
        "tx_spike_extra_ns": rng.randrange(100, 1_000) * 1_000,
    },
    lambda rng: {"frame_drop_prob": round(rng.uniform(0.01, 0.08), 3)},
    lambda rng: {"frame_corrupt_prob": round(rng.uniform(0.01, 0.05), 3)},
    lambda rng: {
        "brownout_mean_interval_ns": rng.randrange(20, 80) * 1_000_000,
        "brownout_duration_ns": rng.randrange(2, 8) * 1_000_000,
    },
    lambda rng: {"reorder_prob": round(rng.uniform(0.01, 0.05), 3)},
    lambda rng: {
        "tick_jitter_fraction": round(rng.uniform(0.05, 0.3), 3),
        "tick_drift_fraction": round(rng.uniform(-0.05, 0.05), 3),
    },
)


def fuzz_fault_plan(rng: random.Random) -> FaultPlan:
    """A random, always-valid FaultPlan arming 1–3 fault axes."""
    overrides: Dict = {"seed": rng.randrange(2**31)}
    for axis in rng.sample(_FAULT_AXES, rng.randint(1, 3)):
        overrides.update(axis(rng))
    plan = FaultPlan(**overrides)
    plan.validate()
    return plan


def fuzz_machine(rng: random.Random) -> MachineSpec:
    """A random machine: core count x IRQ steering x polling isolation."""
    return MachineSpec(
        cores=rng.choice(CHAOS_CORES),
        steering=rng.choice(STEERING_POLICIES),
        isolate_polling=rng.random() < 0.5,
    )


def fuzz_case(seed: int, index: int) -> ChaosCase:
    """Derive case ``index`` of the chaos run rooted at ``seed``.

    Pure function of ``(seed, index)``: replaying a failure needs
    nothing but those two numbers.
    """
    rng = random.Random(derive_seed(seed, "chaos:%d" % index))
    variant = rng.choice(sorted(CHAOS_VARIANTS))
    workload = rng.choice(CHAOS_WORKLOADS)
    rate = rng.choice(CHAOS_RATES)
    attack_rate = (
        rng.choice((2.0, 3.0, 4.0)) * rate
        if workload == WORKLOAD_COMPOSITE
        else None
    )
    plan = fuzz_fault_plan(rng) if rng.random() < 0.6 else None
    trial_seed = rng.randrange(2**31)
    duration_s = rng.choice((0.04, 0.06, 0.08))
    machine = fuzz_machine(rng)
    # Each newer axis is drawn after the older ones, so adding it left
    # every earlier field of (seed, index) unchanged.
    trace = rng.random() < 0.5
    ip_layer_mode = rng.choice((IP_LAYER_THREAD, IP_LAYER_SOFTIRQ))
    rx_batch_pull = rng.random() < 0.5
    coalesce_us = rng.choice(CHAOS_COALESCE_US)
    return ChaosCase(
        index=index,
        variant=variant,
        workload=workload,
        rate_pps=rate,
        trial_seed=trial_seed,
        duration_s=duration_s,
        warmup_s=0.02,
        attack_rate_pps=attack_rate,
        fault_plan=plan,
        machine=machine,
        trace=trace,
        ip_layer_mode=ip_layer_mode,
        rx_batch_pull=rx_batch_pull,
        coalesce_us=coalesce_us,
    )


# ----------------------------------------------------------------------
# Differential execution
# ----------------------------------------------------------------------


def _comparable(result) -> Dict:
    """asdict(result) minus the backend attribution field."""
    data = asdict(result)
    data.pop("backend")
    return data


def _diff_keys(a: Dict, b: Dict) -> List[str]:
    keys = []
    for key in a:
        if a[key] != b.get(key):
            keys.append(key)
    return keys


def _run_case_once(case: ChaosCase, backend: str, sanitize: bool):
    config = CHAOS_VARIANTS[case.variant]().with_options(
        ip_layer_mode=case.ip_layer_mode, rx_batch_pull=case.rx_batch_pull
    )
    machine = case.machine
    if case.coalesce_us:
        machine = replace(machine or MachineSpec(), coalesce_us=case.coalesce_us)
    return _run_trial_impl(
        config,
        case.rate_pps,
        duration_s=case.duration_s,
        warmup_s=case.warmup_s,
        seed=case.trial_seed,
        workload=case.workload,
        attack_rate_pps=case.attack_rate_pps,
        fault_plan=case.fault_plan,
        watchdog=True,
        sanitize=sanitize,
        backend=backend,
        machine=machine,
        trace=case.trace,
    )


def _fast_leg(fast: bool) -> bool:
    """Whether to run the fast leg: only where ``backend="fast"`` is the
    C core, since elsewhere it would re-run pure under the fast label."""
    return fast and _fastcore.FastCore is not None


def run_case(case: ChaosCase, fast: bool = True) -> Dict:
    """Run one case three ways; return its structured record.

    The record always carries ``case``/``describe``; on success ``ok``
    is True, otherwise ``failure`` holds the stage, the reason, and the
    replay recipe.
    """
    record: Dict = {
        "index": case.index,
        "describe": case.describe(),
        "ok": True,
        "failure": None,
    }
    stages = [("reference", PURE, True), ("pure", PURE, False)]
    if _fast_leg(fast):
        stages.append(("fast", FAST, False))
    results = {}
    for stage, backend, sanitize in stages:
        try:
            results[stage] = _run_case_once(case, backend, sanitize)
        except Exception:
            record["ok"] = False
            record["failure"] = {
                "stage": stage,
                "reason": "exception",
                "detail": traceback.format_exc(limit=20),
            }
            return record

    reference = _comparable(results["reference"])
    for stage in ("pure", "fast"):
        if stage not in results:
            continue
        mismatch = _diff_keys(reference, _comparable(results[stage]))
        if mismatch:
            record["ok"] = False
            record["failure"] = {
                "stage": stage,
                "reason": "differential mismatch vs reference",
                "detail": "fields differ: %s" % ", ".join(mismatch),
            }
            return record

    faults = results["reference"].faults
    if faults is not None:
        leaked = faults["teardown"].get("leaked")
        if leaked:
            record["ok"] = False
            record["failure"] = {
                "stage": "reference",
                "reason": "teardown leak",
                "detail": "%r packet(s) unaccounted for after "
                "reconciliation" % leaked,
            }
            return record
    record["verdict"] = results["reference"].watchdog["verdict"]
    record["delivered"] = results["reference"].delivered
    return record


@dataclass
class ChaosReport:
    """Outcome of one chaos run: every case record, failures separated."""

    seed: int
    budget: int
    fast: bool
    cases: List[Dict] = field(default_factory=list)
    failures: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "fast": self.fast,
            "ok": self.ok,
            "cases": self.cases,
            "failures": self.failures,
        }

    def summary(self) -> str:
        if self.ok:
            return "chaos: %d/%d cases clean (seed=%d)" % (
                len(self.cases),
                self.budget,
                self.seed,
            )
        lines = [
            "chaos: %d failure(s) in %d cases (seed=%d)"
            % (len(self.failures), len(self.cases), self.seed)
        ]
        for failure in self.failures:
            lines.append(
                "  case %s: %s [%s] — replay: repro-livelock chaos "
                "--seed %d --replay %d"
                % (
                    failure["describe"],
                    failure["failure"]["reason"],
                    failure["failure"]["stage"],
                    self.seed,
                    failure["index"],
                )
            )
        return "\n".join(lines)


def run_chaos(
    seed: int = 0,
    budget: int = 20,
    fast: bool = True,
    progress=None,
) -> ChaosReport:
    """Fuzz and differentially run ``budget`` cases rooted at ``seed``.

    ``fast=False`` skips the compiled-backend leg, and so does a host
    without the C extension; the report's ``fast`` says which ran.
    ``progress`` is an optional callable fed each case record as it
    completes (the CLI uses it for live output).
    """
    fast = _fast_leg(fast)
    report = ChaosReport(seed=seed, budget=budget, fast=fast)
    for index in range(budget):
        case = fuzz_case(seed, index)
        record = run_case(case, fast=fast)
        report.cases.append(record)
        if not record["ok"]:
            report.failures.append(record)
        if progress is not None:
            progress(record)
    return report


def replay_case(seed: int, index: int, fast: bool = True) -> Dict:
    """Re-run exactly one case of a previous chaos run.

    ``fuzz_case`` is a pure function of ``(seed, index)``, so this
    reproduces the identical trial trio a failure report points at.
    """
    return run_case(fuzz_case(seed, index), fast=fast)
