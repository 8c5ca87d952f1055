"""Transmit starvation (§4.4 / §6.6) — ablation benchmark.

The no-quota polling kernel under overload is the paper's cleanest
starvation exhibit: the input callback monopolises the polling thread,
the output callback never runs, the transmitter idles behind a full
output queue, and fully-processed packets are dropped at the very last
queue ("the unmodified kernel does less work per discarded packet" —
so the no-quota modified kernel is *worse* than unmodified).
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.topology import Router

OVERLOAD = 12_000


def run_starvation(quota):
    config = variants.polling(quota=quota)
    router = Router(config)
    trial = run_trial(TrialSpec(config, OVERLOAD, **TRIAL_KWARGS), router=router)
    return trial, router


def test_transmit_starvation(benchmark):
    (starved, starved_router) = benchmark.pedantic(
        lambda: run_starvation(None), rounds=1, iterations=1
    )
    healthy, _ = run_starvation(10)
    unmodified = run_trial(TrialSpec(variants.unmodified(), OVERLOAD, **TRIAL_KWARGS))

    print()
    print(
        "no quota: out=%.0f, quota=10: out=%.0f, unmodified: out=%.0f"
        % (
            starved.output_rate_pps,
            healthy.output_rate_pps,
            unmodified.output_rate_pps,
        )
    )

    # Starved: output collapses despite input being fully processed.
    assert starved.output_rate_pps < 100
    assert starved.counters["driver.in0.rx_processed"] > 1_000

    # The starvation signature: output queue full, transmitter idle.
    out_driver = starved_router.driver_out
    assert len(out_driver.ifqueue) == out_driver.ifqueue.limit
    assert starved_router.nic_out.tx_idle
    # Fully-processed packets dropped at the last queue = wasted work.
    assert out_driver.ifqueue.drop_count > 1_000

    # Worse than even the unmodified kernel (paper §6.6).
    assert starved.output_rate_pps < unmodified.output_rate_pps

    # The quota removes the starvation entirely.
    assert healthy.output_rate_pps > 4_000

    benchmark.extra_info["starved_output"] = starved.output_rate_pps
    benchmark.extra_info["healthy_output"] = healthy.output_rate_pps
