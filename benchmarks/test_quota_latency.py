"""Quota vs worst-case latency (§6.6.2) — ablation benchmark.

"processing more packets per callback [amortises] the cost of polling
more effectively, but increasing the quota could also increase
worst-case per-packet latency."

Measured: p99 router residence latency under bursty traffic at a rate
below the MLFRR, across quota settings. A large quota lets one
interface's input callback hold the polling thread while packets for
the output callback (and later arrivals) wait.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec

RATE = 3_500  # below MLFRR: no drops, latency is the story
QUOTAS = (5, 20, 100)


def run_latency_sweep():
    stats = {}
    for quota in QUOTAS:
        trial = run_trial(TrialSpec(
            variants.polling(quota=quota),
            RATE,
            workload="bursty",
            burst_size=32,
            **TRIAL_KWARGS,
        ))
        stats[quota] = trial.latency_us
    return stats


def test_quota_vs_per_packet_latency(benchmark):
    stats = benchmark.pedantic(run_latency_sweep, rounds=1, iterations=1)
    print()
    for quota, latency in stats.items():
        print(
            "quota=%4d  mean %7.0f us  min %7.0f us  p99 %7.0f us"
            % (quota, latency["mean"], latency["min"], latency["p99"])
        )
    benchmark.extra_info["latency_us"] = stats

    # Mean per-packet latency grows monotonically with the quota: with a
    # small quota the thread alternates input and output service inside
    # a burst, so early packets leave while later ones are still being
    # received; with a big quota the whole burst is input-processed
    # before the first transmit descriptor is refilled.
    assert stats[5]["mean"] < stats[20]["mean"] < stats[100]["mean"]
    assert stats[100]["mean"] > 1.3 * stats[5]["mean"]
    # The luckiest packet is much luckier under a small quota too.
    assert stats[5]["min"] < 0.5 * stats[100]["min"]
    # The *worst* packet (the burst's tail) pays the burst's own
    # serialisation either way — p99 differs far less than the mean.
    assert stats[100]["p99"] < 1.5 * stats[5]["p99"]
