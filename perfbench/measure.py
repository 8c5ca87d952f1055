"""Timed runs (tracing off): the identity gate, the serial workloads and
the figure sweep, driven only through the public API."""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.core.variants import describe
from repro.experiments import (
    ResultCache,
    figure_6_3,
    run_trial,
    trial_fingerprint,
    trial_to_dict,
)
from repro.experiments import figures

from grids import offered_packets, sweep_kwargs
from timing import (
    Passes,
    checksum,
    min_samples_for,
    percentile,
    run_passes,
    timed_once,
)

#: Backends in the order even passes run them; odd passes reverse it.
SIDES = ("pure", "fast")
#: What ``TrialResult.backend`` must read for each side.
FLAVOUR = {"pure": "pure", "fast": "fast-c"}
#: The seed the pinned checksums were taken at.
DEFAULT_SEED = 0
#: Timed samples per backend a run needs before it may stop (p90).
MIN_TRIALS = min_samples_for(90)


def comparable(result) -> dict:
    """The result as data, minus the backend label (attribution only)."""
    data = trial_to_dict(result)
    data.pop("backend", None)
    return data


class Oracle:
    """Identity gate for every measured trial.

    A result passes when its backend label is the expected flavour and
    its checksum equals the reference: the pinned pure-oracle checksum
    at the default seed, otherwise the first pure result of the same
    spec in this run (even passes run pure first, so it exists before
    any fast result is checked).
    """

    def __init__(self, pins: Dict[str, dict], seed: int) -> None:
        self.pins = pins if seed == DEFAULT_SEED else None
        self.reference: Dict[str, str] = {}
        self.failures: List[str] = []

    def expect(self, item: str, spec) -> None:
        if self.pins is None:
            return
        pin = self.pins.get(trial_fingerprint(spec))
        if pin is None:
            self.failures.append(
                "%s: no pinned checksum (run perfbench/pin.py)" % item
            )
            self.reference[item] = "unpinned"
        else:
            self.reference[item] = pin["checksum"]

    def check(self, item: str, side: str, result) -> bool:
        if getattr(result, "failed", False):
            self.failures.append("%s/%s: %r" % (item, side, result))
            return False
        if result.backend != FLAVOUR[side]:
            self.failures.append(
                "%s/%s: ran on %r, not %r"
                % (item, side, result.backend, FLAVOUR[side])
            )
            return False
        digest = checksum(comparable(result))
        if side == "pure":
            expected = self.reference.setdefault(item, digest)
        else:
            expected = self.reference.get(item)
        if digest != expected:
            self.failures.append(
                "%s/%s: checksum %s != reference %s"
                % (item, side, digest, expected)
            )
            return False
        return True


def time_trials(
    items: Sequence[Tuple[str, object]],
    oracle: Oracle,
    budget_s: float,
    min_passes: int = 2,
    max_s: float = None,
) -> Passes:
    """Closed-loop interleaved passes of ``run_trial`` on both backends."""
    specs = {}
    for item, spec in items:
        oracle.expect(item, spec)
        for side in SIDES:
            specs[(item, side)] = spec.replace(backend=side)

    def measure(_index, item, side):
        spec = specs[(item, side)]
        start = time.perf_counter()
        try:
            result = run_trial(spec)
        except Exception as exc:  # a raising trial is a failed operation
            oracle.failures.append("%s/%s raised %r" % (item, side, exc))
            return None
        elapsed = time.perf_counter() - start
        return elapsed if oracle.check(item, side, result) else None

    return run_passes(
        [item for item, _ in items],
        SIDES,
        measure,
        budget_s=budget_s,
        min_passes=min_passes,
        min_samples=MIN_TRIALS,
        max_s=max_s,
    )


def trial_metrics(items: Sequence[Tuple[str, object]], passes: Passes) -> dict:
    """``<b>.sim_pps`` from each spec's median time, ``<b>.trial_s.*``
    over every timed trial."""
    metrics = {}
    for side in SIDES:
        typical = [(passes.typical(side, item), spec) for item, spec in items]
        done = [(seconds, spec) for seconds, spec in typical if seconds is not None]
        if done:
            metrics[side + ".sim_pps"] = sum(
                offered_packets(spec) for _, spec in done
            ) / sum(seconds for seconds, _ in done)
        times = passes.times(side)
        for pct in (50, 90):
            try:
                metrics["%s.trial_s.p%d" % (side, pct)] = percentile(times, pct)
            except ValueError:
                pass  # too few successes; the run reports failures
    return metrics


def grid_seconds(items: Sequence[Tuple[str, object]], passes: Passes) -> float:
    """One serial pass over the grid on both backends, from each trial's
    median time."""
    return sum(
        passes.typical(side, item) or 0.0 for item, _ in items for side in SIDES
    )


class FigureCapture:
    """Keeps the specs and results of every ``run_trials`` call a figure
    makes, by wrapping the engine entry point the figures module uses."""

    def __init__(self) -> None:
        self.pairs: List[tuple] = []
        self._original = None

    def __enter__(self) -> "FigureCapture":
        self._original = figures.run_trials
        original = self._original

        def run_trials(specs, **engine_kwargs):
            results = original(specs, **engine_kwargs)
            self.pairs.extend(zip(specs, results))
            return results

        figures.run_trials = run_trials
        return self

    def __exit__(self, *exc) -> None:
        figures.run_trials = self._original


class Sweep:
    """``figure_6_3`` through ``run_trials(jobs=...)`` with a
    ``ResultCache`` instance, on the fast backend."""

    def __init__(self, seed: int, jobs: int, cache_root: Path) -> None:
        self.kwargs = sweep_kwargs(seed)
        self.jobs = jobs
        self.cache_root = cache_root
        self._caches = 0

    def fresh_cache(self) -> ResultCache:
        self._caches += 1
        root = self.cache_root / ("cache-%d" % self._caches)
        shutil.rmtree(root, ignore_errors=True)
        return ResultCache(root)

    def drop(self, cache: ResultCache) -> None:
        shutil.rmtree(cache.root, ignore_errors=True)

    def run(self, cache: ResultCache) -> Tuple[float, List[tuple]]:
        """Reference seconds of one sweep, and its (spec, result) pairs."""
        with FigureCapture() as capture:
            seconds = timed_once(
                lambda: figure_6_3(jobs=self.jobs, cache=cache, **self.kwargs)
            )
        return seconds, capture.pairs


def sweep_items(pairs: Sequence[tuple]) -> List[Tuple[str, object]]:
    """Stable item names for the specs of one sweep, in sweep order."""
    return [
        ("%02d:%s@%g" % (index, describe(spec.config), spec.rate_pps), spec)
        for index, (spec, _) in enumerate(pairs)
    ]


def check_sweep(oracle: Oracle, items, pairs) -> Tuple[int, int]:
    """(attempted, failed) over one sweep's results."""
    if len(pairs) != len(items):
        oracle.failures.append(
            "sweep returned %d results for %d specs" % (len(pairs), len(items))
        )
        return len(items), len(items)
    failed = sum(
        not oracle.check(item, "fast", result)
        for (item, _), (_, result) in zip(items, pairs)
    )
    return len(items), failed


def timed_sweeps(
    sweep: Sweep, oracle: Oracle, items, budget_s: float, min_sweeps: int = 5
) -> dict:
    """Cold then warm sweeps until the budget is spent; every result of
    both is checked against the oracle outside the timed region."""
    seconds: Dict[str, List[float]] = {"cold": [], "warm": []}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < min_sweeps or time.perf_counter() - start < budget_s:
        rounds += 1
        cache = sweep.fresh_cache()
        try:
            for side in ("cold", "warm"):
                try:
                    elapsed, pairs = sweep.run(cache)
                except Exception as exc:  # the whole sweep failed
                    oracle.failures.append("sweep raised %r" % (exc,))
                    attempted += len(items)
                    failed += len(items)
                    continue
                seconds[side].append(elapsed)
                tried, bad = check_sweep(oracle, items, pairs)
                attempted += tried
                failed += bad
        finally:
            sweep.drop(cache)
    return {
        "cold_s": seconds["cold"],
        "warm_s": seconds["warm"],
        "attempted": attempted,
        "failed": failed,
    }
