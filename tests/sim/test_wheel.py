"""Calendar-queue semantics: the behaviors that distinguish the wheel
core from a plain binary heap.

The wheel partitions time into bucket windows and jumps the window when
the overflow heap refills it, so the ordering guarantees — same-instant
FIFO, zero-delay scheduling, cancellation — must be re-proven exactly at
those seams. Each test here targets a seam: a same-instant group split
across a window rollover, ``schedule_at`` landing on the instant being
drained, a periodic handle cancelling itself mid-fire, and a
cancellation storm that must not grow resident memory.
"""

from repro.sim.simulator import WHEEL_SHIFT, WHEEL_SLOTS, _COMPACT_MIN_HEAP

#: One full wheel window in nanoseconds.
HORIZON = WHEEL_SLOTS << WHEEL_SHIFT


def _resident(sim):
    return sim.stats["heap_size"]


# ----------------------------------------------------------------------
# Same-instant FIFO across wheel rollover
# ----------------------------------------------------------------------


def test_same_instant_fifo_beyond_the_wheel_horizon(make_sim):
    """Events for one instant past the horizon start in the overflow
    heap, migrate into a bucket at rollover, and must still fire in
    scheduling order."""
    sim = make_sim()
    order = []
    instant = 3 * HORIZON + 12_345
    for i in range(10):
        sim.schedule_at(instant, order.append, i)
        # Interleave unrelated events so the same-instant group is not
        # contiguous in seq space.
        sim.schedule_at(instant + 1, order.append, 100 + i)
    sim.run()
    assert order == list(range(10)) + [100 + i for i in range(10)]
    assert sim.now == instant + 1


def test_same_instant_group_scheduled_before_and_after_rollover(make_sim):
    """Half a same-instant group is scheduled up front (overflow path);
    the other half is scheduled from a callback after the window has
    jumped (bucket/current-slot path). Global order must still be pure
    seq order."""
    sim = make_sim()
    order = []
    instant = 2 * HORIZON + 777

    def late_half():
        # Runs at `instant` (same instant, earlier seq): these go
        # straight into the current-slot heap.
        for i in range(5, 10):
            sim.schedule_at(instant, order.append, i)

    for i in range(5):
        sim.schedule_at(instant, order.append, i)
    # The trigger shares the instant but was scheduled first of all.
    sim.schedule_at(instant, late_half)
    sim.run()
    # The first five were scheduled before the trigger... but the
    # trigger itself has the *last* pre-run seq, so it fires after them,
    # and its five children fire last — all in their own FIFO order.
    assert order == list(range(5)) + list(range(5, 10))


def test_fifo_preserved_across_many_windows(make_sim):
    """A chain that hops whole windows (forcing repeated overflow
    refills) interleaved with same-instant pairs stays deterministic."""
    sim = make_sim()
    log = []

    def hop(step):
        log.append(("hop", step, sim.now))
        if step < 8:
            t = sim.now + HORIZON + (step * 1013)
            sim.schedule_at(t, pair, step, "a")
            sim.schedule_at(t, pair, step, "b")
            sim.schedule_at(t, hop, step + 1)

    def pair(step, tag):
        log.append((tag, step, sim.now))

    sim.schedule(0, hop, 0)
    sim.run()
    # Per window the same-instant triple fires in scheduling order:
    # a, b, then the next hop.
    assert [entry[0] for entry in log] == ["hop"] + ["a", "b", "hop"] * 8
    for a, b, nxt in zip(log[1::3], log[2::3], log[3::3]):
        assert a[2] == b[2] == nxt[2]  # one instant per window
    assert [entry[1] for entry in log if entry[0] == "hop"] == list(range(9))


# ----------------------------------------------------------------------
# schedule_at at the current instant
# ----------------------------------------------------------------------


def test_schedule_at_current_instant_from_callback(make_sim):
    """``schedule_at(sim.now)`` from inside a callback is legal and the
    new event fires later within the same instant, after events already
    queued for it."""
    sim = make_sim()
    order = []

    def first():
        order.append("first")
        sim.schedule_at(sim.now, order.append, "appended")

    sim.schedule(50, first)
    sim.schedule(50, order.append, "second")
    sim.run()
    assert order == ["first", "second", "appended"]
    assert sim.now == 50


def test_zero_delay_chain_makes_progress_without_advancing_clock(make_sim):
    sim = make_sim()
    count = [0]

    def again():
        count[0] += 1
        if count[0] < 1000:
            sim.schedule(0, again)

    sim.schedule(10, again)
    sim.run()
    assert count[0] == 1000
    assert sim.now == 10


# ----------------------------------------------------------------------
# Periodic handle cancelled during its own fire
# ----------------------------------------------------------------------


def test_periodic_cancel_from_inside_its_own_callback(make_sim):
    sim = make_sim()
    fires = []
    handle = None

    def tick():
        fires.append(sim.now)
        if len(fires) == 3:
            assert handle.cancel() is True

    handle = sim.schedule_periodic(100, tick)
    sim.run(until=10_000)
    assert fires == [100, 200, 300]
    assert not handle.active
    # Cancelling from inside the fire must not leave a pending event or
    # double-count: the re-arm is skipped entirely.
    assert sim.stats["pending"] == 0
    assert handle.cancel() is False  # idempotent


def test_periodic_cancel_via_simulator_cancel_mid_run(make_sim):
    sim = make_sim()
    fires = []
    handle = sim.schedule_periodic(100, lambda: fires.append(sim.now))
    sim.schedule(250, lambda: sim.cancel(handle))
    sim.run(until=1_000)
    assert fires == [100, 200]
    assert sim.stats["pending"] == 0


# ----------------------------------------------------------------------
# Cancellation storm: resident memory stays bounded
# ----------------------------------------------------------------------


def test_cancellation_storm_memory_is_bounded(make_sim):
    """200k timers cancelled long before their fire time: in-place
    compaction must keep the resident queue near zero instead of
    retaining every tombstone until the clock reaches it."""
    sim = make_sim()
    timers = 200_000
    events = [
        sim.schedule_at(10**9 + i, lambda: None) for i in range(timers)
    ]
    peak = _resident(sim)
    for event in events:
        assert sim.cancel(event) is True
    del events
    stats = sim.stats
    assert stats["pending"] == 0
    assert stats["cancelled"] == timers
    # Compaction triggers whenever tombstones outnumber live events, so
    # the post-storm footprint is a small constant, not O(timers).
    assert stats["heap_size"] <= 2 * _COMPACT_MIN_HEAP
    assert stats["heap_size"] < peak
    assert stats["compactions"] >= 1
    # And the drained simulator still works.
    fired = []
    sim.schedule(5, fired.append, "alive")
    sim.run()
    assert fired == ["alive"]


def test_cancel_storm_interleaved_with_live_traffic(make_sim):
    """Cancel 4 of every 5 timers while a live chain drains: the
    survivors all fire, in order, and cancelled ones never do."""
    sim = make_sim()
    fired = []
    doomed = []
    for i in range(5_000):
        event = sim.schedule(1_000 + i * 97, fired.append, i)
        if i % 5:
            doomed.append((i, event))
    for i, event in doomed:
        assert sim.cancel(event)
    sim.run()
    survivors = [i for i in range(5_000) if i % 5 == 0]
    assert fired == survivors
    assert sim.stats["pending"] == 0


# ----------------------------------------------------------------------
# Diagnostics surface (satellite: stats/__repr__)
# ----------------------------------------------------------------------


def test_stats_reports_wheel_overflow_and_slab(make_sim):
    sim = make_sim()
    sim.schedule(100, lambda: None)                # near: wheel bucket
    sim.schedule(5 * HORIZON, lambda: None)        # far: overflow heap
    stats = sim.stats
    assert stats["wheel_events"] == 1
    assert stats["wheel_occupancy"] == 1
    assert stats["overflow_size"] == 1
    assert stats["heap_size"] == 2
    assert stats["pending"] == 2
    for key in ("slab_allocated", "slab_reused", "slab_recycled",
                "slab_free", "slab_high_water"):
        assert key in stats
    sim.run()
    text = repr(sim)
    assert "wheel=" in text and "overflow=" in text and "slab_hw=" in text
