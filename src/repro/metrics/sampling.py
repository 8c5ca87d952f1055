"""Periodic state sampling: queue depths and ring occupancy over time.

The feedback mechanisms are oscillators — the screening queue saws
between its watermarks (§6.6.1), the cycle limiter gates input once per
period (§7). A :class:`DepthSampler` records any ``len()``-able object's
occupancy on a fixed period into a
:class:`~repro.sim.probes.TimeSeries`, so tests and examples can assert
on (or display) the dynamics rather than just end-of-run totals.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..sim.probes import TimeSeries
from ..sim.simulator import Simulator
from .stats import mean


class DepthSampler:
    """Samples ``probe()`` every ``period_ns`` into a TimeSeries."""

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        period_ns: int,
        name: str = "depth",
    ) -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.probe = probe
        self.period_ns = period_ns
        self.series = TimeSeries(name)
        self._running = False
        self._timer = None

    @classmethod
    def for_queue(
        cls, sim: Simulator, queue, period_ns: int
    ) -> "DepthSampler":
        """Sample anything with ``__len__`` (PacketQueue, rings...)."""
        return cls(sim, lambda: len(queue), period_ns, name=queue.name)

    def start(self) -> "DepthSampler":
        if self._running:
            raise RuntimeError("sampler already running")
        self._running = True
        # One re-armed event for the sampler's lifetime (samplers tick for
        # the whole run, often at sub-tick periods).
        self._timer = self.sim.schedule_periodic(
            self.period_ns, self._tick, label="sample:" + self.series.name
        )
        return self

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self.series.record(self.sim.now, float(self.probe()))

    # ------------------------------------------------------------------

    def values(self) -> Sequence[float]:
        return self.series.values()

    def max_depth(self) -> float:
        values = self.series.values()
        return max(values) if values else 0.0

    def mean_depth(self) -> float:
        values = self.series.values()
        return mean(values) if values else 0.0

    def oscillations(self, high: float, low: float) -> int:
        """Count full high->low cycles (feedback saw-tooth periods)."""
        count = 0
        armed = False
        for value in self.series.values():
            if not armed and value >= high:
                armed = True
            elif armed and value <= low:
                armed = False
                count += 1
        return count

    def sparkline(self, buckets: int = 60) -> str:
        """A coarse one-line rendering of the sampled series."""
        values = list(self.series.values())
        if not values:
            return "(no samples)"
        marks = " .:-=+*#%@"
        peak = max(values) or 1.0
        step = max(1, len(values) // buckets)
        chars = []
        for index in range(0, len(values), step):
            window = values[index:index + step]
            level = max(window) / peak
            chars.append(marks[min(len(marks) - 1, int(level * (len(marks) - 1)))])
        return "".join(chars)
