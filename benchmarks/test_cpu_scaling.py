"""Cost-model scaling sanity — extension benchmark.

The paper sizes its testbed deliberately: "We chose the slowest
available Alpha host, to make the livelock problem more evident," and
notes that "inefficient code tends to exacerbate receive livelock, by
lowering the MLFRR." This benchmark verifies the cost model behaves
coherently when scaled: a 2x-faster kernel path roughly doubles the
MLFRR and pushes the screend livelock point out proportionally, while
the livelock *shape* persists at every speed.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments import run_trials
from repro.experiments.harness import sweep_series
from repro.experiments.spec import TrialSpec
from repro.kernel.costs import DEFAULT_COSTS
from repro.metrics import estimate_mlfrr, peak_rate

RATES = (1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 8_000, 10_000, 12_000)


def run_scaling():
    rows = {}
    for factor in (1.0, 0.5, 2.0):
        costs = DEFAULT_COSTS.scaled(factor)
        config = variants.unmodified(costs=costs)
        series = sweep_series(
            run_trials([TrialSpec(config, rate, **TRIAL_KWARGS) for rate in RATES])
        )
        rows[factor] = series
    return rows


def test_mlfrr_scales_with_cpu_speed(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    print()
    peaks = {}
    for factor, series in sorted(rows.items()):
        peaks[factor] = peak_rate(series)[1]
        print(
            "cost x%.1f  peak=%7.0f  MLFRR=%7.0f"
            % (factor, peaks[factor], estimate_mlfrr(series))
        )
    benchmark.extra_info["peaks"] = {str(k): v for k, v in peaks.items()}

    # Halving per-packet costs (a 2x-faster kernel) raises the peak
    # substantially; doubling costs lowers it.
    assert peaks[0.5] > 1.5 * peaks[1.0]
    assert peaks[2.0] < 0.7 * peaks[1.0]

    # The slow kernel livelocks hardest within the measured range —
    # the paper's "more evident" rationale.
    slow_tail = max(rows[2.0])[1]
    fast_tail = max(rows[0.5])[1]
    assert slow_tail / peaks[2.0] < fast_tail / max(peaks[0.5], 1)
