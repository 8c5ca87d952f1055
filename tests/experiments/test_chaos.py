"""Chaos harness: seed-pure fuzzing, differential legs, replayability."""

import random

import pytest

from repro.experiments.chaos import (
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
