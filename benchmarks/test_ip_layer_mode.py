"""IP layer as software interrupt (4.2BSD) vs kernel thread (Digital
UNIX) — ablation.

§6.3: "Digital UNIX follows a similar model, with the IP layer running
as a separately scheduled thread at IPL = 0, instead of as a software
interrupt handler." Both placements put IP processing *below* device
IPL, so both exhibit the same receive livelock; the softirq variant has
slightly less dispatch overhead, the thread variant pays context
switches. This benchmark verifies the paper's implicit claim that the
pathology is structural, not an artifact of one implementation choice.
"""

from conftest import BENCH_RATES, TRIAL_KWARGS

from repro.core import variants
from repro.experiments import run_trials
from repro.experiments.harness import sweep_series
from repro.experiments.spec import TrialSpec
from repro.kernel.config import IP_LAYER_SOFTIRQ, IP_LAYER_THREAD
from repro.metrics import estimate_mlfrr, is_livelock_free, peak_rate


def run_both():
    series = {}
    for mode in (IP_LAYER_SOFTIRQ, IP_LAYER_THREAD):
        config = variants.unmodified(ip_layer_mode=mode)
        series[mode] = sweep_series(
            run_trials(
                [TrialSpec(config, rate, **TRIAL_KWARGS) for rate in BENCH_RATES]
            )
        )
    return series


def test_ip_layer_mode(benchmark):
    series = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    for mode, points in series.items():
        print("%-8s peak=%7.0f  MLFRR=%7.0f" % (
            mode, peak_rate(points)[1], estimate_mlfrr(points)))
    benchmark.extra_info["series"] = {
        mode: [[float(x), float(y)] for x, y in pts]
        for mode, pts in series.items()
    }

    softirq = series[IP_LAYER_SOFTIRQ]
    thread = series[IP_LAYER_THREAD]

    # Both livelock-prone: output falls well below peak under overload.
    for points in (softirq, thread):
        assert not is_livelock_free(points)
        _, peak = peak_rate(points)
        tail = max(points)[1]
        assert tail < 0.6 * peak

    # Their capacities are close (same structure, different plumbing).
    mlfrr_s = estimate_mlfrr(softirq)
    mlfrr_t = estimate_mlfrr(thread)
    assert abs(mlfrr_s - mlfrr_t) <= 1_500, (mlfrr_s, mlfrr_t)
