"""Tests for the scheduler's hot-path machinery: the exact pending
counter, tombstone compaction, and re-armed periodic events."""

import pytest

from repro.sim import SchedulingError, Simulator
from repro.sim.events import PENDING
from repro.sim.simulator import _COMPACT_MIN_HEAP


def resident_events(sim):
    """Every event resident anywhere in the calendar queue: the
    current-slot heap, the wheel buckets, and the overflow heap."""
    for _, _, event in sim._cur:
        yield event
    for bucket in sim._wheel:
        for _, _, event in bucket:
            yield event
    for _, _, event in sim._overflow:
        yield event


def exact_pending(sim):
    """Ground truth the counter must match: scan the whole queue."""
    return sum(1 for e in resident_events(sim) if e.state == PENDING)


# ----------------------------------------------------------------------
# Exact pending counter (no O(n) heap scan)
# ----------------------------------------------------------------------

def test_pending_counter_tracks_schedule_cancel_fire():
    sim = Simulator()
    events = [sim.schedule(10 * i, lambda: None) for i in range(20)]
    assert sim.stats["pending"] == 20 == exact_pending(sim)
    for event in events[::2]:
        sim.cancel(event)
    assert sim.stats["pending"] == 10 == exact_pending(sim)
    sim.run(until=95)
    assert sim.stats["pending"] == exact_pending(sim)
    sim.run()
    assert sim.stats["pending"] == 0 == exact_pending(sim)


def test_pending_counter_exact_under_nested_scheduling_and_cancels():
    sim = Simulator()
    live = []

    def body(depth):
        assert sim.stats["pending"] == exact_pending(sim)
        if depth < 40:
            keep = sim.schedule(5, body, depth + 1)
            victim = sim.schedule(7, lambda: None)
            live.append(keep)
            sim.cancel(victim)
        assert sim.stats["pending"] == exact_pending(sim)

    sim.schedule(1, body, 0)
    sim.run()
    assert sim.stats["pending"] == 0 == exact_pending(sim)


def test_pending_counter_exact_with_step_and_peek():
    sim = Simulator()
    events = [sim.schedule(i, lambda: None) for i in range(30)]
    for event in events[5:25]:
        sim.cancel(event)
    while sim.peek_time() is not None:
        assert sim.stats["pending"] == exact_pending(sim)
        sim.step()
    assert sim.stats["pending"] == 0


# ----------------------------------------------------------------------
# Tombstone compaction
# ----------------------------------------------------------------------

def test_heap_compacts_when_cancelled_events_dominate(make_sim):
    """Regression: events cancelled long before their fire time used to
    sit in the heap until the clock reached them — a cancellation-heavy
    run grew the heap without bound."""
    sim = make_sim()
    # Far-future timers, all cancelled immediately; reclamation must not
    # wait for t=10^9.
    timers = [sim.schedule(1_000_000_000 + i, lambda: None) for i in range(10_000)]
    for timer in timers:
        sim.cancel(timer)
    assert sim.stats["pending"] == 0
    assert sim.stats["compactions"] >= 1
    assert sim.stats["heap_size"] < _COMPACT_MIN_HEAP


def test_heap_stays_bounded_with_continuous_cancellation(make_sim):
    """The CPU-model pattern: schedule a completion, cancel it on
    preemption, reschedule. The heap must stay ~O(live events)."""
    sim = make_sim()
    live = 50
    events = [sim.schedule(1_000_000 + i, lambda: None) for i in range(live)]
    for round_no in range(200):
        for i in range(live):
            sim.cancel(events[i])
            events[i] = sim.schedule(1_000_000 + round_no + i, lambda: None)
    assert sim.stats["pending"] == live
    # Compaction keeps tombstones below the live count (threshold is 2x).
    assert sim.stats["heap_size"] <= 2 * live + _COMPACT_MIN_HEAP
    sim.run()
    assert sim.stats["fired"] == live


def test_compaction_preserves_firing_order(make_sim):
    sim = make_sim()
    fired = []
    keep = []
    for i in range(500):
        event = sim.schedule(i, fired.append, i)
        if i % 5 == 0:
            keep.append(i)
        else:
            sim.cancel(event)
    sim.run()
    assert fired == keep


def test_small_heaps_are_not_compacted(make_sim):
    sim = make_sim()
    event = sim.schedule(10, lambda: None)
    sim.cancel(event)
    assert sim.stats["compactions"] == 0


# ----------------------------------------------------------------------
# schedule_periodic
# ----------------------------------------------------------------------

def test_periodic_fires_every_interval(make_sim):
    sim = make_sim()
    ticks = []
    sim.schedule_periodic(10, lambda: ticks.append(sim.now))
    sim.run(until=55)
    assert ticks == [10, 20, 30, 40, 50]


def test_periodic_reuses_one_event_object():
    sim = Simulator()
    handle = sim.schedule_periodic(10, lambda: None)
    first = handle._event
    sim.run(until=100)
    assert handle.fires == 10
    assert handle._event is first
    # Each firing counts as scheduled work (10 fired + the next re-arm),
    # but all of it went through the single re-armed event object.
    assert sim.stats["scheduled"] == 11
    assert sim.stats["fired"] == 10
    assert sim.stats["pending"] == 1


def test_periodic_first_delay(make_sim):
    sim = make_sim()
    ticks = []
    sim.schedule_periodic(10, lambda: ticks.append(sim.now), first_delay=3)
    sim.run(until=30)
    assert ticks == [3, 13, 23]


def test_periodic_cancel_stops_future_fires(make_sim):
    sim = make_sim()
    ticks = []
    handle = sim.schedule_periodic(10, lambda: ticks.append(sim.now))
    sim.run(until=25)
    assert sim.cancel(handle) is True
    assert sim.cancel(handle) is False
    sim.run(until=100)
    assert ticks == [10, 20]
    assert not handle.active


def test_periodic_cancel_from_inside_callback(make_sim):
    sim = make_sim()
    ticks = []
    handle = sim.schedule_periodic(
        10, lambda: (ticks.append(sim.now), handle.cancel())
    )
    sim.run(until=100)
    assert ticks == [10]
    assert sim.stats["pending"] == 0


def test_periodic_interleaves_with_one_shot_events(make_sim):
    sim = make_sim()
    order = []
    sim.schedule_periodic(10, order.append, "tick")
    sim.schedule(15, order.append, "once")
    sim.run(until=30)
    assert order == ["tick", "once", "tick", "tick"]


def test_periodic_rejects_bad_intervals(make_sim):
    sim = make_sim()
    with pytest.raises(SchedulingError):
        sim.schedule_periodic(0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule_periodic(10, lambda: None, first_delay=-1)
