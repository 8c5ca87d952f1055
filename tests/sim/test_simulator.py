"""Unit tests for the discrete-event scheduler core."""

import random

import pytest

from repro.sim import SchedulingError
from repro.sim.simulator import WHEEL_SHIFT, WHEEL_SLOTS


def test_clock_starts_at_zero(make_sim):
    sim = make_sim()
    assert sim.now == 0


def test_events_fire_in_time_order(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order(make_sim):
    sim = make_sim()
    fired = []
    for name in "abcde":
        sim.schedule(5, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_events_fire_in_time_then_scheduling_order(make_sim):
    """What a plain binary heap of ``(time, seq)`` would do, including
    same-instant ties and times beyond the wheel's horizon."""
    sim, fired, rng = make_sim(), [], random.Random(7)
    spacing = 3 * (WHEEL_SLOTS << WHEEL_SHIFT) // 200
    for seq in range(2_000):
        time = rng.randrange(200) * spacing
        sim.schedule(time, fired.append, (time, seq))
    sim.run()
    assert fired == sorted(fired)


def test_zero_delay_event_fires_after_current_instant_events(make_sim):
    sim = make_sim()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, "nested")

    sim.schedule(1, first)
    sim.schedule(1, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_negative_delay_rejected(make_sim):
    sim = make_sim()
    with pytest.raises(SchedulingError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time(make_sim):
    sim = make_sim()
    seen = []
    sim.schedule_at(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]


def test_schedule_at_past_rejected(make_sim):
    sim = make_sim()
    sim.schedule(50, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(10, lambda: None)


def test_cancel_prevents_firing(make_sim):
    sim = make_sim()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    assert sim.cancel(event) is True
    sim.run()
    assert fired == []


def test_cancel_twice_returns_false(make_sim):
    sim = make_sim()
    event = sim.schedule(10, lambda: None)
    assert sim.cancel(event) is True
    assert sim.cancel(event) is False


def test_cancel_fired_event_returns_false(make_sim):
    sim = make_sim()
    event = sim.schedule(10, lambda: None)
    sim.run()
    assert sim.cancel(event) is False


def test_run_until_deadline_advances_clock_to_deadline(make_sim):
    sim = make_sim()
    sim.schedule(10, lambda: None)
    final = sim.run(until=100)
    assert final == 100
    assert sim.now == 100


def test_run_until_does_not_fire_later_events(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(200, fired.append, "late")
    sim.run(until=100)
    assert fired == ["early"]
    sim.run()
    assert fired == ["early", "late"]


def test_run_for_is_relative(make_sim):
    sim = make_sim()
    sim.run(until=50)
    sim.run_for(25)
    assert sim.now == 75


def test_run_with_past_deadline_rejected(make_sim):
    sim = make_sim()
    sim.run(until=100)
    with pytest.raises(SchedulingError):
        sim.run(until=50)


def test_events_scheduled_during_run_are_processed(make_sim):
    sim = make_sim()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(10, chain, 1)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 50


def test_peek_time_skips_cancelled(make_sim):
    sim = make_sim()
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    sim.cancel(event)
    assert sim.peek_time() == 20


def test_stats_counts(make_sim):
    sim = make_sim()
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    sim.cancel(event)
    sim.run()
    stats = sim.stats
    assert stats["scheduled"] == 2
    assert stats["fired"] == 1
    assert stats["cancelled"] == 1
    assert stats["pending"] == 0
