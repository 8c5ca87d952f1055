"""The plain drain loop and its sanitized twin are behaviourally identical.

:mod:`repro.sim._drain` writes the two loops out side by side; these
tests pin the contract that keeps them twins: same firing order, same
counter values observable from *inside* callbacks (what the livelock
watchdog samples), same final stats — under delay-0 chains,
cross-bucket and overflow scheduling, cancellation storms that trigger
mid-drain compaction, periodic timers, and deadline-tiled runs — and
sources that differ by the sanitizer lines alone.
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.sim._drain import drain_plain, drain_sanitized
from repro.sim.simulator import Simulator


def _sanitized(sim: Simulator) -> Simulator:
    sim.set_sanitize_hook(lambda: None, 97)
    return sim


VARIANTS = {
    "plain": lambda: Simulator(),
    "sanitized": lambda: _sanitized(Simulator()),
}


# ----------------------------------------------------------------------
# Randomised scenario: one deterministic script of scheduling decisions,
# replayed against each variant. Callbacks schedule, cancel, and sample
# stats, so any divergence in *when* tombstones are reclaimed, when
# compaction runs, or how many triples are resident shows up directly.
# ----------------------------------------------------------------------


def _run_scenario(sim: Simulator, seed: int):
    rng = random.Random(seed)
    trace = []
    handles = []
    periodics = []

    def cb(tag):
        trace.append((sim.now, tag))
        roll = rng.random()
        if roll < 0.55:
            for _ in range(rng.randrange(1, 4)):
                delay = rng.choice(
                    (0, 0, 1, 17, 4_000, 70_000, 300_000, 20_000_000, 60_000_000)
                )
                handles.append(sim.schedule(delay, cb, "s%d" % rng.randrange(9)))
        if roll > 0.35 and handles:
            # Cancel a batch of pending handles from inside a callback:
            # this is what trips compaction mid-drain.
            for _ in range(rng.randrange(1, 6)):
                sim.cancel(handles[rng.randrange(len(handles))])
        if roll > 0.97 and periodics:
            periodics[rng.randrange(len(periodics))].cancel()
        if len(trace) % 23 == 0:
            snap = sim.stats
            trace.append(("stats", snap["pending"], snap["heap_size"]))

    for i in range(80):
        delay = rng.choice((0, 3, 900, 50_000, 200_000, 30_000_000))
        handles.append(sim.schedule(delay, cb, "seed%d" % i))
    for interval in (7_000, 65_536, 1_000_000):
        periodics.append(sim.schedule_periodic(interval, cb, "p%d" % interval))

    # Tile the timeline with deadlines (the harness's warmup/measure
    # pattern), then drain what's left of the non-periodic backlog.
    for deadline in (10_000, 10_001, 500_000, 2_000_000, 40_000_000):
        sim.run(deadline)
        trace.append(("window", sim.now, sim.stats["pending"]))
    for handle in periodics:
        handle.cancel()
    sim.run(80_000_000)

    stats = sim.stats
    trace.append(("final", sim.now, stats["pending"], stats["heap_size"]))
    return trace, stats


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_variants_identical_on_randomised_workload(seed):
    baseline = None
    base_stats = None
    for name, factory in VARIANTS.items():
        trace, stats = _run_scenario(factory(), seed)
        if baseline is None:
            baseline, base_stats = trace, stats
        else:
            assert trace == baseline, "drain %r diverged (seed %d)" % (name, seed)
            assert stats == base_stats, (
                "drain %r final stats diverged (seed %d)" % (name, seed)
            )


def test_scalar_sources_differ_only_by_sanitizer_fragments():
    """The sanitized loop is the plain loop plus exactly the two
    sanitizer fragments — nothing else may diverge."""
    plain = inspect.getsource(drain_plain).replace("drain_plain", "drain_x")
    sanitized = inspect.getsource(drain_sanitized).replace(
        "drain_sanitized", "drain_x"
    )
    extra = [
        line
        for line in sanitized.splitlines()
        if line not in plain.splitlines()
    ]
    assert extra == [
        "    hook = self._sanitize_hook",
        "    every = self._sanitize_every",
        "    countdown = every",
        "            countdown -= 1",
        "            if countdown <= 0:",
        "                countdown = every",
        "                hook()",
    ]
    plain_residue = [
        line for line in plain.splitlines() if line not in sanitized.splitlines()
    ]
    assert plain_residue == []
