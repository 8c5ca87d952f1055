"""Early drop vs late drop: wasted-work accounting (§5.1, §6.4) — ablation.

"Once the system has invested enough work in an incoming packet ... it
makes more sense to process that packet to completion than to drop it";
conversely, packets that must be dropped should be dropped "as early as
possible (i.e., in the receiving interface), so that discarded packets
do not waste any resources."

Measured at identical overload: where each kernel drops packets, and
how many CPU microseconds each kernel sinks into packets it later drops.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.kernel.costs import DEFAULT_COSTS

OVERLOAD = 12_000


def wasted_us(trial):
    """CPU microseconds invested in packets that were later dropped."""
    costs = DEFAULT_COSTS
    # Drops at ipintrq wasted the device-level receive work.
    ipintrq = trial.counters.get("queue.ipintrq.dropped", 0)
    wasted = ipintrq * costs.us(costs.rx_device_per_packet)
    # Drops at the output queue wasted the whole input + forwarding path.
    for name, value in trial.counters.items():
        if name.endswith("ifqueue.dropped"):
            per_packet = costs.us(
                costs.polled_rx_per_packet + costs.ip_forward
            )
            wasted += value * per_packet
    # Drops at the RX ring wasted nothing (the wire delivered them free).
    return wasted


def run_three():
    return {
        "unmodified": run_trial(
            TrialSpec(variants.unmodified(), OVERLOAD, **TRIAL_KWARGS)
        ),
        "polling quota=10": run_trial(
            TrialSpec(variants.polling(quota=10), OVERLOAD, **TRIAL_KWARGS)
        ),
        "polling no quota": run_trial(
            TrialSpec(variants.polling(quota=None), OVERLOAD, **TRIAL_KWARGS)
        ),
    }


def test_wasted_work(benchmark):
    trials = benchmark.pedantic(run_three, rounds=1, iterations=1)
    print()
    waste = {}
    for label, trial in trials.items():
        waste[label] = wasted_us(trial)
        print(
            "%-18s out=%7.0f  wasted CPU: %8.0f us  drops: %s"
            % (label, trial.output_rate_pps, waste[label], trial.drops)
        )
    benchmark.extra_info["wasted_us"] = waste

    # The healthy polling kernel wastes essentially nothing: all its
    # drops happen in the receiving interface, before any CPU is spent.
    assert waste["polling quota=10"] == 0
    ring_drops = trials["polling quota=10"].counters.get(
        "nic.in0.rx_overflow_drops", 0
    )
    assert ring_drops > 1_000

    # The unmodified kernel wastes device-level work on every ipintrq drop.
    assert waste["unmodified"] > 50_000  # > 50 ms of CPU per measured window

    # The no-quota kernel wastes the *entire* forwarding path per drop —
    # the most expensive possible failure.
    assert waste["polling no quota"] > waste["unmodified"]
