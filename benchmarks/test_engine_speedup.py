"""Performance benchmarks for the sweep engine.

Asserts the engine's perf floors where the hardware allows it:

* a warm result cache replays a figure 6-1 sweep >= 10x faster than the
  cold run;
* with >= 4 cores, ``jobs=4`` runs the sweep >= 2x faster than serial
  (skipped on smaller runners — process fan-out cannot beat serial on a
  single core).
"""

import os
import tempfile
import time

import pytest

from repro.experiments.figures import figure_6_1
from repro.experiments.harness import FAST_RATE_GRID

SWEEP_KWARGS = dict(rates=(1_000, 5_000, 12_000), duration_s=0.1, warmup_s=0.05)


def test_warm_cache_at_least_10x_faster_than_cold():
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = figure_6_1(cache=True, cache_dir=cache_dir, **SWEEP_KWARGS)
        cold_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        warm = figure_6_1(cache=True, cache_dir=cache_dir, **SWEEP_KWARGS)
        warm_elapsed = time.perf_counter() - start
    assert warm.series == cold.series
    assert cold_elapsed >= 10 * warm_elapsed, (cold_elapsed, warm_elapsed)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup floor requires a >= 4-core runner",
)
def test_parallel_sweep_at_least_2x_faster_on_4_cores():
    kwargs = dict(rates=FAST_RATE_GRID, duration_s=0.3, warmup_s=0.1)
    start = time.perf_counter()
    serial = figure_6_1(**kwargs)
    serial_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    parallel = figure_6_1(jobs=4, **kwargs)
    parallel_elapsed = time.perf_counter() - start
    assert parallel.series == serial.series
    assert serial_elapsed >= 2 * parallel_elapsed, (serial_elapsed, parallel_elapsed)


def test_parallel_and_cached_sweeps_match_serial_exactly():
    serial = figure_6_1(**SWEEP_KWARGS)
    parallel = figure_6_1(jobs=2, **SWEEP_KWARGS)
    with tempfile.TemporaryDirectory() as cache_dir:
        cached = figure_6_1(cache=True, cache_dir=cache_dir, **SWEEP_KWARGS)
        warm = figure_6_1(cache=True, cache_dir=cache_dir, **SWEEP_KWARGS)
    assert serial.series == parallel.series == cached.series == warm.series
