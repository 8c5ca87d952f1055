"""§5.3's two anti-preemption approaches — ablation benchmark.

"do (almost) everything at high IPL, or do (almost) nothing at high
IPL." Both eliminate in-kernel livelock; the difference is what happens
to everything *below* the network code. The high-IPL kernel masks user
processes (and needs separate rate control); the polling-thread kernel
runs at IPL 0 where the cycle limit can arbitrate.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec

OVERLOAD = 12_000


def run_matrix():
    rows = {}
    for label, config in (
        ("high-IPL q=10", variants.high_ipl(quota=10)),
        ("polling q=10", variants.polling(quota=10)),
        ("polling + limit 50%", variants.polling(quota=10, cycle_limit=0.5)),
    ):
        trial = run_trial(TrialSpec(
            config, OVERLOAD, with_compute=True, **TRIAL_KWARGS
        ))
        rows[label] = (trial.output_rate_pps, trial.user_cpu_share)
    return rows


def test_high_ipl_vs_polling_thread(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print()
    for label, (output, share) in rows.items():
        print("%-22s out=%7.0f pkt/s  user=%5.1f%%" % (label, output, 100 * share))
    benchmark.extra_info["matrix"] = {
        k: [v[0], v[1]] for k, v in rows.items()
    }

    high_out, high_share = rows["high-IPL q=10"]
    poll_out, poll_share = rows["polling q=10"]
    lim_out, lim_share = rows["polling + limit 50%"]

    # Both approaches forward at capacity under overload (no livelock).
    assert high_out > 4_000
    assert poll_out > 4_000
    assert abs(high_out - poll_out) < 0.15 * poll_out

    # High IPL starves user code, as does unlimited polling...
    assert high_share < 0.02
    assert poll_share < 0.02
    # ...and only the cycle limit restores user progress (at a
    # forwarding cost), which is why the paper's final design pairs the
    # IPL-0 polling thread with the §7 mechanism.
    assert lim_share > 0.25
    assert lim_out > 1_500
