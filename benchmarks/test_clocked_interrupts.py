"""Clocked interrupts vs hybrid polling (§8 related work) — ablation.

Traw & Smith's periodic polling: "it is hard to choose the proper
polling frequency: too high, and the system spends all its time polling;
too low, and the receive latency soars." The paper's hybrid — interrupts
only initiate polling — needs no such tuning.

Measured: low-load latency and overload throughput for three poll
periods and for the hybrid design.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.sim.units import NS_PER_MS

LOW_RATE = 500
OVERLOAD = 12_000
PERIODS_MS = (0.25, 1.0, 4.0)


def run_matrix():
    rows = {}
    for period_ms in PERIODS_MS:
        config = variants.clocked(poll_interval_ns=int(period_ms * NS_PER_MS))
        low = run_trial(TrialSpec(config, LOW_RATE, **TRIAL_KWARGS))
        high = run_trial(TrialSpec(config, OVERLOAD, **TRIAL_KWARGS))
        rows["clocked %.2fms" % period_ms] = (
            low.latency_us["median"],
            high.output_rate_pps,
        )
    hybrid_low = run_trial(
        TrialSpec(variants.polling(quota=10), LOW_RATE, **TRIAL_KWARGS)
    )
    hybrid_high = run_trial(
        TrialSpec(variants.polling(quota=10), OVERLOAD, **TRIAL_KWARGS)
    )
    rows["hybrid"] = (hybrid_low.latency_us["median"], hybrid_high.output_rate_pps)
    return rows


def test_clocked_interrupts(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print()
    for label, (latency, throughput) in rows.items():
        print("%-16s latency %8.0f us   overload output %7.0f pkt/s"
              % (label, latency, throughput))
    benchmark.extra_info["matrix"] = rows

    lat_fast, thr_fast = rows["clocked 0.25ms"]
    lat_slow, thr_slow = rows["clocked 4.00ms"]
    lat_hybrid, thr_hybrid = rows["hybrid"]

    # The dilemma: longer periods add latency...
    assert lat_slow > lat_fast + 1_000
    # (a ~4ms period means ~2ms average wait just to be noticed)
    assert lat_slow > 1_500

    # The hybrid gets the best of both regimes: interrupt-grade latency
    # at low load, polling-grade throughput under overload.
    assert lat_hybrid < lat_fast
    assert thr_hybrid >= 0.95 * max(thr_fast, thr_slow)
