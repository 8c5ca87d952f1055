"""Tests for the benchmark's timing kernel.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from timing import (  # noqa: E402
    MIN_BEYOND,
    SPIN_REF_S,
    checksum,
    min_samples_for,
    percentile,
    run_passes,
    timed_once,
    to_reference,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def reference_host():
    """A probe that always spins at reference speed: no scaling."""
    return SPIN_REF_S


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile([], 50)


def test_min_samples_for_matches_percentile():
    for pct in (50, 90, 99):
        need = min_samples_for(pct)
        percentile(list(range(need)), pct)
        with pytest.raises(ValueError):
            percentile(list(range(need - 1)), pct)
    assert min_samples_for(90) == 10 * MIN_BEYOND


def test_checksum_ignores_key_order_and_sees_values():
    a = {"x": 1, "y": [1.5, {"z": None}]}
    b = {"y": [1.5, {"z": None}], "x": 1}
    assert checksum(a) == checksum(b)
    assert checksum(a) != checksum({"x": 1, "y": [1.5, {"z": 0}]})
    assert checksum({"n": 1}) != checksum({"n": 1.0})


def test_passes_alternate_side_order():
    calls = []
    clock = FakeClock()
    costs = {("a", "pure"): [3.0, 1.0], ("a", "fast"): [2.0, 4.0]}

    def measure(index, item, side):
        calls.append((index, item, side))
        clock.now += 1.0
        return costs[(item, side)][index]

    out = run_passes(["a"], ("pure", "fast"), measure, budget_s=0.0,
                     min_passes=2, probe=reference_host, clock=clock)
    assert calls == [(0, "a", "pure"), (0, "a", "fast"),
                     (1, "a", "fast"), (1, "a", "pure")]
    assert out.passes == 2
    assert out.times("pure") == pytest.approx([3.0, 1.0])
    assert out.times("fast") == pytest.approx([2.0, 4.0])
    assert out.typical("fast", "a") == pytest.approx(3.0)


def test_failures_are_counted_and_never_timed():
    clock = FakeClock()

    def measure(index, item, side):
        clock.now += 1.0
        return None if side == "fast" else 0.5

    out = run_passes(["a", "b"], ("pure", "fast"), measure, budget_s=0.0,
                     probe=reference_host, clock=clock)
    assert (out.attempted, out.failed) == (4, 2)
    assert out.times("fast") == []
    assert out.typical("fast", "a") is None
    assert out.typical("pure", "b") == pytest.approx(0.5)


def test_a_slow_host_is_scaled_back_to_reference_seconds():
    assert to_reference(1.0, [SPIN_REF_S]) == 1.0
    assert to_reference(
        1.0, [SPIN_REF_S, 2 * SPIN_REF_S, 2 * SPIN_REF_S]
    ) == pytest.approx(0.5)
    # Each pass is scaled by the median spin of that pass.
    spins = iter([SPIN_REF_S, 3 * SPIN_REF_S, 2 * SPIN_REF_S, 2 * SPIN_REF_S])
    out = run_passes(["a", "b"], ("pure",), lambda index, item, side: 1.0,
                     budget_s=0.0, min_passes=2, probe=lambda: next(spins),
                     clock=FakeClock())
    assert out.times("pure") == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert len(out.spins) == 4


def test_timed_once_brackets_the_call():
    calls = []

    def probe():
        calls.append("spin")
        return SPIN_REF_S

    seconds = timed_once(lambda: calls.append("run"), probe=probe, spins=2)
    assert calls == ["spin", "spin", "run", "spin", "spin"]
    assert seconds >= 0.0


def test_passes_run_until_budget_and_sample_floor():
    clock = FakeClock()

    def measure(index, item, side):
        clock.now += 0.1
        return 0.1

    out = run_passes(["a"], ("pure", "fast"), measure, budget_s=1.0,
                     min_samples=12, probe=reference_host, clock=clock)
    # Each pass takes 0.2 s; the sample floor (12 per side) binds last.
    assert out.passes == 12
    assert len(out.times("pure")) == 12


def test_hard_stop_wins_over_the_floors():
    clock = FakeClock()

    def measure(index, item, side):
        clock.now += 1.0
        return 1.0

    out = run_passes(["a"], ("pure", "fast"), measure, budget_s=0.0,
                     min_samples=1000, max_s=5.0, probe=reference_host,
                     clock=clock)
    assert out.passes == 3
