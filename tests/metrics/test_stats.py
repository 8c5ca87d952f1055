"""Unit and property tests for the statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import jitter, mean, median, percentile, stddev, summarize
from repro.metrics.stats import variance

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_mean():
    assert mean([1, 2, 3]) == 2.0


def test_mean_adds_left_to_right_on_every_python():
    """1e16 + 1.0 rounds back to 1e16, so a left-to-right sum is 0.0.
    A compensated sum (the builtin ``sum()`` from Python 3.12) gives 1.0;
    results must not depend on the interpreter."""
    assert mean([1e16, 1.0, -1e16]) == 0.0


def test_empty_rejected():
    for fn in (mean, median, variance, stddev):
        with pytest.raises(ValueError):
            fn([])
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_bounds():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    with pytest.raises(ValueError):
        percentile(values, 101)
    with pytest.raises(ValueError):
        percentile(values, -1)


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5.0
    assert percentile([0, 10, 20, 30], 25) == 7.5


def test_median_odd_even():
    assert median([3, 1, 2]) == 2
    assert median([1, 2, 3, 4]) == 2.5


def test_stddev():
    assert stddev([2, 2, 2]) == 0.0
    assert stddev([0, 4]) == 2.0


def test_jitter():
    assert jitter([5]) == 0.0
    assert jitter([0, 10, 0]) == 10.0
    assert jitter([1, 2, 3]) == 1.0


def test_summarize_shape():
    summary = summarize([1.0, 2.0, 3.0])
    assert summary["count"] == 3
    assert summary["mean"] == 2.0
    assert summary["min"] == 1.0 and summary["max"] == 3.0
    assert summarize([]) == {"count": 0}


@given(st.lists(finite_floats, min_size=1, max_size=100))
def test_percentile_monotone_in_pct(values):
    assert percentile(values, 10) <= percentile(values, 50) <= percentile(values, 90)


@given(st.lists(finite_floats, min_size=1, max_size=100))
def test_mean_within_bounds(values):
    assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6


@given(st.lists(finite_floats, min_size=1, max_size=100))
def test_percentile_within_bounds(values):
    for pct in (0, 25, 50, 75, 100):
        assert min(values) <= percentile(values, pct) <= max(values)


@given(st.lists(finite_floats, min_size=2, max_size=50), finite_floats)
def test_mean_shift_invariance(values, shift):
    shifted = [v + shift for v in values]
    assert mean(shifted) == pytest.approx(mean(values) + shift, rel=1e-6, abs=1e-3)
