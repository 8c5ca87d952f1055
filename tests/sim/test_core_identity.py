"""Per-event identity of the compiled event core and the pure oracle.

Each workload shape below drives one core through a scheduler pattern
the simulator leans on and folds every firing instant into a checksum.
Both cores must end on the same ``(fired, now, checksum)``: the same
events at the same instants in the same order. The shapes are timer
chains spread over many wheel buckets, schedule/cancel churn (the CPU
engine's pattern), a kernel callout table and sparse periodic timers.
"""

import pytest

from repro._fastcore import FastCore
from repro.sim.simulator import Simulator

from ..cores import needs_corec

_MASK = 0xFFFFFFFFFFFFFFFF
FIRES = 6_000


def _fold(acc, value):
    acc[0] = (acc[0] * 1000003 + value) & _MASK


def _noop():
    pass


def _chains(sim, acc):
    """64 self-rescheduling chains with microsecond-scale periods."""
    remaining = [FIRES // 64] * 64

    def tick(index, period):
        _fold(acc, sim.now)
        remaining[index] -= 1
        if remaining[index] > 0:
            sim.schedule(period, tick, index, period)

    for index in range(64):
        sim.schedule(index + 1, tick, index, 3_000 + 1_370 * index)


def _churn(sim, acc):
    """Every unit of work cancels a pending completion and schedules a
    replacement: one cancellation per fire, a constant live set."""
    decoys = [sim.schedule(13_000 + i, _noop) for i in range(32)]
    count = [0]

    def work(j):
        _fold(acc, sim.now)
        slot = j & 31
        sim.cancel(decoys[slot])
        decoys[slot] = sim.schedule(13_000 + (j % 97), _noop)
        count[0] += 1
        if count[0] < FIRES:
            sim.schedule(800 + (j % 53), work, j + 1)

    sim.schedule(1, work, 0)


def _callouts(sim, acc):
    """~1.5k outstanding timers, each rescheduling itself milliseconds
    out when it expires: the population a callout wheel exists for."""
    population = FIRES // 4
    fired = [0]

    def tick(j):
        _fold(acc, sim.now + j)
        fired[0] += 1
        if fired[0] + population <= FIRES:
            sim.schedule(5_000 + (j * 7919) % 5_000_000, tick, j + population)

    for j in range(population):
        sim.schedule(5_000 + (j * 7919) % 5_000_000, tick, j)


def _timers(sim, acc):
    """A near-idle system: three periodic timers and nothing else."""

    def tick(tag):
        _fold(acc, sim.now * 2 + tag)

    sim.schedule_periodic(1_000_000, tick, 1)
    sim.schedule_periodic(107_000, tick, 2)
    sim.schedule_periodic(9_300, tick, 3)


SHAPES = {
    "chains": (_chains, None),
    "churn": (_churn, None),
    "callouts": (_callouts, None),
    "timers": (_timers, FIRES * 9_300),
}


def _fingerprint(core, shape):
    build, deadline = SHAPES[shape]
    sim = core()
    acc = [0]
    build(sim, acc)
    sim.run(deadline)
    return sim.stats["fired"], sim.now, acc[0]


@needs_corec
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_compiled_core_fires_the_same_events(shape):
    assert _fingerprint(FastCore, shape) == _fingerprint(Simulator, shape)


@needs_corec
def test_cancel_storm_leaves_the_same_resident_queue():
    """Timers scheduled far out, then all cancelled: compaction must
    leave both cores with the same resident size and nothing pending."""
    resident = []
    for core in (FastCore, Simulator):
        sim = core()
        events = [sim.schedule(10**9 + i, _noop) for i in range(20_000)]
        for event in events:
            sim.cancel(event)
        assert sim.stats["pending"] == 0
        resident.append(sim.stats["heap_size"])
    assert resident[0] == resident[1]
