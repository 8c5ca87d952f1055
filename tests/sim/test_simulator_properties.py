"""Property-based tests of the event scheduler's core invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=200))
def test_events_fire_in_nondecreasing_time_order(make_sim, delays):
    sim = make_sim()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
def test_clock_never_moves_backwards(make_sim, delays):
    sim = make_sim()
    observed = []
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    last = -1
    while sim.step():
        assert sim.now >= last
        last = sim.now


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        max_size=100,
    )
)
def test_cancelled_events_never_fire(make_sim, spec):
    sim = make_sim()
    fired = []
    expected = 0
    for delay, keep in spec:
        event = sim.schedule(delay, lambda d=delay: fired.append(d))
        if keep:
            expected += 1
        else:
            sim.cancel(event)
    sim.run()
    assert len(fired) == expected


@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=50),
    st.integers(min_value=0, max_value=600),
)
@settings(max_examples=50)
def test_run_until_is_a_clean_partition(make_sim, delays, split):
    """Running to a deadline then to completion fires every event exactly
    once, same as a single run."""
    sim = make_sim()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run(until=split)
    early = list(fired)
    assert all(d <= split for d in early)
    sim.run()
    assert sorted(fired) == sorted(delays)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000), st.booleans()),
        max_size=150,
    ),
    st.integers(min_value=0, max_value=1100),
)
def test_pending_counter_matches_heap_scan(spec, deadline):
    """stats["pending"] is maintained exactly (no queue scan), through any
    mix of scheduling, cancellation, partial runs and compaction."""
    from repro.sim.events import PENDING

    def scan(sim):
        resident = (
            [tr for tr in sim._cur]
            + [tr for bucket in sim._wheel for tr in bucket]
            + [tr for tr in sim._overflow]
        )
        return sum(1 for _, _, e in resident if e.state == PENDING)

    sim = Simulator()
    events = []
    for delay, keep in spec:
        event = sim.schedule(delay, lambda: None)
        events.append(event)
        if not keep:
            sim.cancel(event)
        assert sim.stats["pending"] == scan(sim)
    sim.run(until=deadline)
    assert sim.stats["pending"] == scan(sim)
    sim.run()
    assert sim.stats["pending"] == 0


@given(st.data())
def test_nested_scheduling_preserves_order(make_sim, data):
    """Events scheduled from inside callbacks still respect time order."""
    sim = make_sim()
    fired = []
    first_delays = data.draw(
        st.lists(st.integers(min_value=0, max_value=100), max_size=20)
    )

    def chain(delay):
        fired.append(sim.now)
        nested = data.draw(st.integers(min_value=0, max_value=50))
        if len(fired) < 60:
            sim.schedule(nested, chain, nested)

    for delay in first_delays:
        sim.schedule(delay, chain, delay)
    sim.run()
    assert fired == sorted(fired)
