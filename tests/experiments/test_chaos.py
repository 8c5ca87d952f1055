"""Chaos harness: seed-pure fuzzing, differential legs, replayability."""

import random
from dataclasses import replace

import pytest

from repro.experiments.chaos import (
    CHAOS_COALESCE_US,
    CHAOS_CORES,
    CHAOS_RATES,
    CHAOS_VARIANTS,
    CHAOS_WORKLOADS,
    ChaosCase,
    fuzz_case,
    fuzz_fault_plan,
    replay_case,
    run_case,
    run_chaos,
)
from repro.kernel.config import IP_LAYER_SOFTIRQ, IP_LAYER_THREAD


# ----------------------------------------------------------------------
# fuzz_case is a pure function of (seed, index)
# ----------------------------------------------------------------------


def test_fuzz_case_is_pure_in_seed_and_index():
    assert fuzz_case(5, 3) == fuzz_case(5, 3)
    assert fuzz_case(5, 3) != fuzz_case(5, 4)
    assert fuzz_case(5, 3) != fuzz_case(6, 3)


def test_fuzz_case_draws_from_the_published_axes():
    for index in range(50):
        case = fuzz_case(0, index)
        assert case.index == index
        assert case.variant in CHAOS_VARIANTS
        assert case.workload in CHAOS_WORKLOADS
        assert case.rate_pps in CHAOS_RATES
        assert case.machine.cores in CHAOS_CORES
        assert "cores=%d/" % case.machine.cores in case.describe()
        assert ("trace" in case.describe().split()) == case.trace
        assert case.duration_s > case.warmup_s >= 0
        if case.fault_plan is not None:
            case.fault_plan.validate()


def test_fuzz_covers_faults_attacks_and_mitigation():
    """50 cases from one seed should exercise the interesting corners:
    some armed fault plans, some adversarial workloads, some mitigated
    variants, the hybrid driver, every core count, and traced as well as
    untraced trials — otherwise the fuzzer is not pulling its weight."""
    cases = [fuzz_case(0, i) for i in range(50)]
    assert any(c.fault_plan is not None for c in cases)
    assert any(c.fault_plan is None for c in cases)
    assert any(c.workload in ("synflood", "flashcrowd", "composite") for c in cases)
    assert any("mitigate" in c.variant for c in cases)
    assert any(c.variant == "hybrid" for c in cases)
    assert {c.machine.cores for c in cases} == set(CHAOS_CORES)
    assert any(c.machine.isolate_polling for c in cases)
    assert any(c.trace for c in cases)
    assert any(not c.trace for c in cases)
    attacked = [c for c in cases if c.workload == "composite"]
    assert all(c.attack_rate_pps and c.attack_rate_pps > c.rate_pps for c in attacked)


#: ``describe()`` of the seed-0 smoke cases before the receive-knob
#: axes (IP input context, batch pull, coalescing) were added.
SEED0_BEFORE_RECEIVE_AXES = [
    "#0 high-ipl composite 12000pps seed=143548237 attack=36000pps "
    "cores=2/rss/isolate",
    "#1 polling-inf synflood 12000pps seed=248090579 faults[rx_irq_drop_prob,"
    "spurious_rx_irq_rate_pps] cores=4/affinity trace",
    "#2 high-ipl bursty 8000pps seed=1675788535 faults[rx_irq_duplicate_prob] "
    "cores=4/rss trace",
    "#3 clocked flashcrowd 8000pps seed=1202628994 faults[rx_irq_duplicate_prob,"
    "frame_drop_prob,brownout_mean_interval_ns,brownout_duration_ns] "
    "cores=1/rss/isolate",
    "#4 clocked-mitigate flashcrowd 12000pps seed=1784000099 "
    "cores=4/affinity/isolate",
    "#5 hybrid poisson 12000pps seed=1051053938 faults[rx_stall_mean_interval_ns,"
    "rx_stall_duration_ns] cores=4/affinity trace",
    "#6 polling-mitigate constant 2000pps seed=2098970626 "
    "cores=2/affinity/isolate",
    "#7 polling flashcrowd 12000pps seed=89562136 faults[rx_irq_drop_prob,"
    "tx_spike_prob,tx_spike_extra_ns,reorder_prob] cores=1/affinity",
]


def test_receive_axes_leave_every_earlier_field_unchanged():
    """The receive knobs are drawn last, so each existing (seed, index)
    still fuzzes the same variant, workload, faults, machine and trace."""
    for index, before in enumerate(SEED0_BEFORE_RECEIVE_AXES):
        case = replace(
            fuzz_case(0, index),
            ip_layer_mode=IP_LAYER_THREAD,
            rx_batch_pull=False,
            coalesce_us=0.0,
        )
        assert case.describe() == before


def test_fuzz_covers_the_receive_axes():
    cases = [fuzz_case(0, i) for i in range(100)]
    assert any(
        c.variant == "unmodified" and c.ip_layer_mode == IP_LAYER_SOFTIRQ
        for c in cases
    )
    assert any(c.variant == "clocked" and c.rx_batch_pull for c in cases)
    assert any(c.variant == "hybrid" and c.coalesce_us for c in cases)
    assert {c.coalesce_us for c in cases} == set(CHAOS_COALESCE_US)
    for case in cases:
        text = case.describe().split()
        assert ("batch-pull" in text) == case.rx_batch_pull
        assert ("ip=softirq" in text) == (case.ip_layer_mode == IP_LAYER_SOFTIRQ)


def test_fuzz_fault_plan_arms_one_to_three_axes():
    rng = random.Random(12)
    for _ in range(20):
        plan = fuzz_fault_plan(rng)
        plan.validate()
        armed = sum(
            1
            for key, value in plan.to_dict().items()
            if key != "seed" and value
        )
        # An axis can set coupled fields (interval + duration), so the
        # non-default field count ranges a bit wider than 1-3.
        assert armed >= 1


# ----------------------------------------------------------------------
# Differential execution
# ----------------------------------------------------------------------


def test_clean_case_passes_all_three_legs():
    case = ChaosCase(
        index=0,
        variant="polling",
        workload="constant",
        rate_pps=5_000.0,
        trial_seed=11,
        duration_s=0.04,
        warmup_s=0.02,
    )
    record = run_case(case)
    assert record["ok"], record["failure"]
    assert record["failure"] is None
    assert record["delivered"] > 0
    assert record["verdict"] == "healthy"


def test_run_chaos_small_budget_is_clean_and_shaped():
    report = run_chaos(seed=0, budget=4)
    assert report.ok
    assert len(report.cases) == 4
    assert report.failures == []
    data = report.to_dict()
    assert data["seed"] == 0 and data["budget"] == 4 and data["ok"] is True
    assert len(data["cases"]) == 4
    assert "4 cases" in report.summary() or "0 of 4" in report.summary()


def test_replay_reproduces_the_exact_record():
    report = run_chaos(seed=0, budget=4)
    assert replay_case(0, 2) == report.cases[2]


def test_chaos_report_is_deterministic_across_runs():
    first = run_chaos(seed=3, budget=3).to_dict()
    second = run_chaos(seed=3, budget=3).to_dict()
    assert first == second


def test_progress_callback_sees_every_record():
    seen = []
    report = run_chaos(seed=0, budget=3, progress=seen.append)
    assert seen == report.cases


def test_fast_false_skips_the_compiled_leg():
    case = fuzz_case(0, 0)
    record = run_case(case, fast=False)
    assert record["ok"], record["failure"]


def test_host_without_corec_reports_only_the_legs_it_ran(monkeypatch):
    """Without ``_corec``, ``backend="fast"`` is the pure oracle, so the
    fast leg is skipped and the report says ``fast: false`` rather than
    passing pure off as the fast leg."""
    import repro._fastcore as fastcore
    import repro.experiments.chaos as chaos_mod

    monkeypatch.setattr(fastcore, "FastCore", None)
    legs = []
    run_once = chaos_mod._run_case_once

    def spy(case, backend, sanitize):
        legs.append(backend)
        return run_once(case, backend, sanitize)

    monkeypatch.setattr(chaos_mod, "_run_case_once", spy)
    report = run_chaos(seed=0, budget=1)
    assert report.ok
    assert report.to_dict()["fast"] is False
    assert legs == ["pure", "pure"]
    assert replay_case(0, 0) == report.cases[0]
    assert legs == ["pure"] * 4


# ----------------------------------------------------------------------
# Failure records point back at the seed
# ----------------------------------------------------------------------


def test_failure_record_carries_the_replay_recipe(monkeypatch):
    import repro.experiments.chaos as chaos_mod

    def boom(case, backend, sanitize):
        raise RuntimeError("injected harness crash")

    monkeypatch.setattr(chaos_mod, "_run_case_once", boom)
    report = chaos_mod.run_chaos(seed=9, budget=1)
    assert not report.ok
    failure = report.failures[0]["failure"]
    assert failure["stage"] == "reference"
    assert failure["reason"] == "exception"
    assert "injected harness crash" in failure["detail"]
    assert "--seed 9 --replay 0" in report.summary()
