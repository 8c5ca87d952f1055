"""Receive latency under bursts (§4.3) — ablation benchmark.

"If a burst of packets arrives too rapidly, the system will do
link-level processing of the entire burst before doing any higher-layer
processing of the first packet ... the latency to deliver the first
packet in a burst is increased almost by the time it takes to receive
the entire burst."

Measured: median router residence latency at a light average load,
delivered in bursts of increasing size, for the unmodified kernel.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec

RATE = 500  # pkt/s average: light load, latency-dominated regime
BURSTS = (1, 8, 32)


def run_burst_sweep():
    medians = {}
    for burst in BURSTS:
        trial = run_trial(TrialSpec(
            variants.unmodified(),
            RATE,
            workload="bursty",
            burst_size=burst,
            **TRIAL_KWARGS,
        ))
        medians[burst] = trial.latency_us["median"]
    return medians


def test_burst_latency(benchmark):
    medians = benchmark.pedantic(run_burst_sweep, rounds=1, iterations=1)
    print()
    for burst, median in medians.items():
        print("burst=%3d  median latency %8.0f us" % (burst, median))
    benchmark.extra_info["median_latency_us"] = medians

    # Latency grows with burst size...
    assert medians[1] < medians[8] < medians[32]
    # ...and the big-burst latency is dominated by receiving the burst:
    # 32 packets take ~2150 us to arrive at wire speed, so the median
    # packet waits on the order of a milli-second, vs ~200-400 us alone.
    assert medians[32] > 3 * medians[1]
    assert medians[1] < 500
    assert medians[32] > 900
