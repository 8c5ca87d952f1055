"""Drop-policy ablation: drop-tail vs RED on the output queue (§8).

"The policy was and remains 'drop-tail'; other policies might provide
better results [3]." This bench checks what RED does and does not buy
in the livelock setting:

* it does NOT change livelock behaviour — the paper's mechanisms govern
  *when* drops happen (early vs late), not *which* packet is chosen, and
  the collapse dynamics are identical under both policies;
* it DOES keep the standing output queue shorter in the one
  configuration that builds one (large quota under overload).
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.topology import Router

OVERLOAD = 8_000


def run_pair():
    rows = {}
    for policy in ("droptail", "red"):
        config = variants.polling(quota=100).with_options(
            output_queue_policy=policy
        )
        router = Router(config)
        trial = run_trial(TrialSpec(config, OVERLOAD, **TRIAL_KWARGS), router=router)
        rows[policy] = {
            "output": trial.output_rate_pps,
            "ifqueue_max_depth": router.driver_out.ifqueue.max_depth,
            "ifqueue_drops": router.driver_out.ifqueue.drop_count,
        }
    return rows


def test_red_vs_droptail(benchmark):
    rows = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print()
    for policy, row in rows.items():
        print(
            "%-9s out=%7.0f  max ifqueue depth=%3d  drops=%d"
            % (policy, row["output"], row["ifqueue_max_depth"], row["ifqueue_drops"])
        )
    benchmark.extra_info["rows"] = rows

    droptail, red = rows["droptail"], rows["red"]
    # Same story at the throughput level (within 30%): drop policy does
    # not rescue a quota-100 kernel from its output-queue pathology.
    assert abs(red["output"] - droptail["output"]) < 0.3 * max(
        droptail["output"], 1
    )
    # But RED kept the standing queue visibly shorter than the hard
    # limit the drop-tail queue slams into.
    assert droptail["ifqueue_max_depth"] == 50
    assert red["ifqueue_max_depth"] < 50
