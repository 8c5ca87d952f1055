"""The benchmark's one timing kernel: interleaved passes, host-speed
scaling, percentiles that refuse thin tails, and checksums.

Nothing here imports the simulator, so the helpers are tested on their
own (``perfbench/tests``) and shared by every workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from typing import Callable, Hashable, List, NamedTuple, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples and p50 needs 20.
MIN_BEYOND = 10

#: Seconds one :func:`spin` takes on the reference host. Every timing
#: is reported in reference seconds: host seconds x SPIN_REF_S / the
#: spin time measured around it.
SPIN_REF_S = 3.0e-3


def checksum(data) -> str:
    """Short, key-order-independent digest of a JSON-able value."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    above it: a tail read from a handful of points is noise.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * count))
    beyond = count - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it (need >= %d)"
            % (pct, count, beyond, MIN_BEYOND)
        )
    return ordered[rank - 1]


def min_samples_for(pct: float) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    count = 1
    while count - max(1, math.ceil(pct / 100.0 * count)) < MIN_BEYOND:
        count += 1
    return count


def spin(iterations: int = 40_000) -> float:
    """Seconds a fixed, allocation-light pure-Python loop takes."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def to_reference(seconds: float, spins: Sequence[float]) -> float:
    """Host seconds scaled to the reference host, by the median of the
    spins taken around them.

    The host is shared: a neighbour or a frequency dip slows the spin
    loop and the program alike, for seconds to minutes. The program
    under test cannot move the spin loop, so the scaling treats every
    commit the same.
    """
    return seconds * SPIN_REF_S / statistics.median(spins)


class Sample(NamedTuple):
    side: str
    item: Hashable
    seconds: float  # reference seconds


class Passes:
    """Successful samples of closed-loop, interleaved passes over
    ``items x sides``, with the failures counted beside them."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.spins: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.elapsed_s = 0.0

    def of(self, side: str, item: Hashable = None) -> List[Sample]:
        return [
            s for s in self.samples
            if s.side == side and (item is None or s.item == item)
        ]

    def times(self, side: str) -> List[float]:
        return [s.seconds for s in self.of(side)]

    def typical(self, side: str, item: Hashable) -> Optional[float]:
        """Median sample of one item on one side, None if none passed."""
        mine = self.of(side, item)
        return statistics.median(s.seconds for s in mine) if mine else None


def run_passes(
    items: Sequence[Hashable],
    sides: Sequence[str],
    measure: Callable[[int, Hashable, str], Optional[float]],
    budget_s: float,
    min_passes: int = 1,
    min_samples: int = 0,
    max_s: Optional[float] = None,
    probe: Callable[[], float] = spin,
    clock: Callable[[], float] = time.perf_counter,
) -> Passes:
    """Run whole passes until the budget and the sample floors are met.

    Each pass measures every item once per side, the sides of one item
    back to back after one ``probe`` spin; a pass's samples are scaled
    to the reference host by the median spin of that pass. The side
    order flips from one pass to the next, so drift in the host never
    lands on one side only. ``measure(pass_index, item, side)`` returns
    the host seconds it timed, or None for a failed operation. Passing
    stops after the first whole pass that has used ``budget_s``, run
    ``min_passes`` and collected ``min_samples`` successes per side;
    ``max_s`` is a hard stop checked between passes.
    """
    out = Passes()
    start = clock()
    while True:
        index = out.passes
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        spins = []
        timed = []
        for item in items:
            spins.append(probe())
            for side in order:
                timed.append((side, item, measure(index, item, side)))
        out.spins.extend(spins)
        for side, item, seconds in timed:
            out.attempted += 1
            if seconds is None:
                out.failed += 1
            else:
                out.samples.append(Sample(side, item, to_reference(seconds, spins)))
        out.passes += 1
        out.elapsed_s = clock() - start
        if max_s is not None and out.elapsed_s >= max_s:
            break
        enough = all(len(out.of(side)) >= min_samples for side in sides)
        if out.elapsed_s >= budget_s and out.passes >= min_passes and enough:
            break
    return out


def timed_once(run: Callable[[], object], probe: Callable[[], float] = spin,
               spins: int = 3) -> float:
    """Reference seconds of one call, scaled by ``spins`` probes taken
    before it and as many after it."""
    around = [probe() for _ in range(spins)]
    start = time.perf_counter()
    run()
    seconds = time.perf_counter() - start
    around.extend(probe() for _ in range(spins))
    return to_reference(seconds, around)
