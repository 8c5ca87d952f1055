"""§5.1 interrupt-rate limiting — ablation benchmark.

"When the system is about to drop a received packet because an internal
queue is full, this strongly suggests that it should disable input
interrupts ... Interrupts may be re-enabled when internal buffer space
becomes available."

This is the cheapest of the paper's fixes: the classic kernel with one
feedback wire from ipintrq to the device interrupt-enable flags.
Compared here against the unmodified kernel and the full polling design
across the overload range.
"""

from conftest import TRIAL_KWARGS

from repro.core import variants
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec

RATES = (4_000, 8_000, 12_000)


def run_matrix():
    rows = {}
    for label, config in (
        ("unmodified", variants.unmodified()),
        ("rate-limited", variants.unmodified(input_feedback=True)),
        ("polling q=10", variants.polling(quota=10)),
    ):
        rows[label] = [
            run_trial(TrialSpec(config, rate, **TRIAL_KWARGS)).output_rate_pps
            for rate in RATES
        ]
    return rows


def test_interrupt_rate_limiting(benchmark):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    print()
    for label, outputs in rows.items():
        print("%-14s " % label + "  ".join("%7.0f" % o for o in outputs))
    benchmark.extra_info["rates"] = list(RATES)
    benchmark.extra_info["outputs"] = rows

    unmod = rows["unmodified"]
    limited = rows["rate-limited"]
    polled = rows["polling q=10"]

    # Rate limiting rescues overload throughput almost completely...
    assert limited[-1] > 2.0 * unmod[-1]
    assert min(limited) > 0.8 * max(limited)  # near-flat
    # ...but the full design is at least as good at every point.
    for a, b in zip(limited, polled):
        assert b >= 0.95 * a
