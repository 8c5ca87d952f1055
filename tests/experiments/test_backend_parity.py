"""Backend parity: the fast core must be bit-identical to the oracle.

``repro._fastcore`` exists to make trials cheaper, not different: the
contract is that for any spec the fast backend produces byte-for-byte
the same :class:`TrialResult` as the pure-python simulator — same
firing order, same RNG draw order, same counters, drops, latency
percentiles, fault reports, timelines, and the raw trace record stream.
These tests sweep that contract across the full driver x fault-plan x
trace x machine matrix (the multi-core machine runs the compiled path on
every core, and traced or faulted trials stay compiled), pin a slice of
the golden fixture to the fast backend explicitly, and prove the cache
fingerprint never depends on which core ran.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro._fastcore import FASTCORE_KIND, FastCore
from repro.core import variants
from repro.experiments.engine import trial_fingerprint
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.results import trial_to_dict
from repro.hw.machine import STEERING_RSS, MachineSpec
from repro.sim.backend import make_simulator, resolve_backend
from repro.sim.simulator import Simulator
from repro.trace.buffer import TraceBuffer

DRIVERS = {
    "unmodified": variants.unmodified,
    "polling": variants.polling,
    "high_ipl": variants.high_ipl,
    "clocked": variants.clocked,
    "hybrid": variants.hybrid,
}
PLANS = (None, "lossy-nic", "stalled-dma", "flaky-clock")
TRACE = (False, True)
#: None is the paper's single-core machine; the cores=4 RSS machine
#: with isolated polling cores steers device lines off core 0.
MACHINES = {
    None: "",
    MachineSpec(cores=4, steering=STEERING_RSS, isolate_polling=True): "-smp4",
}
TIMING = dict(duration_s=0.05, warmup_s=0.02)

MATRIX = [
    (driver, plan, trace, machine)
    for machine in MACHINES
    for driver in DRIVERS
    for plan in PLANS
    for trace in TRACE
]


def _canonical_bytes(result) -> bytes:
    """The trial as bytes, minus the attribution-only backend field."""
    data = trial_to_dict(result)
    data.pop("backend")
    return json.dumps(data, sort_keys=True).encode("utf-8")


def _run(driver, plan, trace, machine, backend):
    """One matrix cell; a traced cell also returns its caller-owned
    ring, so the raw record stream can be compared."""
    kwargs = dict(
        TIMING, seed=3, workload="bursty", machine=machine, backend=backend
    )
    ring = TraceBuffer() if trace else None
    if plan is not None:
        kwargs["fault_plan"] = plan
        kwargs["watchdog"] = True
    if trace:
        kwargs["trace"] = ring
    spec = TrialSpec.from_kwargs(DRIVERS[driver](), 9_000, **kwargs)
    return run_trial(spec), ring


@pytest.mark.parametrize(
    "driver,plan,trace,machine",
    MATRIX,
    ids=[
        "%s-%s-%s%s" % (d, p or "clean", "trace" if t else "plain", MACHINES[m])
        for d, p, t, m in MATRIX
    ],
)
def test_fast_backend_is_bit_identical(driver, plan, trace, machine):
    pure, pure_ring = _run(driver, plan, trace, machine, backend="pure")
    fast, fast_ring = _run(driver, plan, trace, machine, backend="fast")
    assert pure.backend == "pure"
    assert fast.backend == FASTCORE_KIND
    assert fast.backend.startswith("fast-")
    assert _canonical_bytes(pure) == _canonical_bytes(fast)
    if trace:
        assert fast_ring.site_names == pure_ring.site_names
        assert fast_ring.records() == pure_ring.records()


GOLDEN_SLICE = [
    ("unmodified", "bursty", 12_000, 7),
    ("polling", "poisson", 3_000, 0),
    ("clocked", "constant", 12_000, 0),
    ("high_ipl", "bursty", 3_000, 7),
]


@pytest.mark.parametrize(
    "variant,workload,rate,seed",
    GOLDEN_SLICE,
    ids=["%s-%s-%d-%d" % cell for cell in GOLDEN_SLICE],
)
def test_golden_fixture_pinned_to_fast_backend(variant, workload, rate, seed):
    """A slice of the golden matrix, explicitly on the fast core.

    The full 48-cell fixture runs against both backends in CI (via
    ``REPRO_BACKEND=fast``); this keeps a sample of that proof in the
    default test run so a parity break fails fast everywhere.
    """
    from .test_golden_determinism import GOLDEN, TIMING as GOLDEN_TIMING, _comparable

    result = run_trial(TrialSpec.from_kwargs(
        DRIVERS[variant](),
        rate,
        seed=seed,
        workload=workload,
        backend="fast",
        **GOLDEN_TIMING,
    ))
    assert result.backend == FASTCORE_KIND
    assert _comparable(result) == GOLDEN["%s|%s|%d|%d" % (variant, workload, rate, seed)]


ADVERSARIAL = [
    ("unmodified", "synflood", None),
    ("polling", "flashcrowd", None),
    ("high_ipl", "composite", 6_000),
    ("clocked", "composite", None),
]


@pytest.mark.parametrize(
    "driver,workload,attack_rate",
    ADVERSARIAL,
    ids=["%s-%s" % (d, w) for d, w, _ in ADVERSARIAL],
)
def test_adversarial_workloads_bit_identical(driver, workload, attack_rate):
    """The PR-8 attack generators through the compiled packet path.

    Composite workloads interleave two generators (two RNG streams) on
    one NIC, so any compiled-path reordering of draws shows up here."""
    kwargs = dict(TIMING, seed=5, workload=workload)
    if attack_rate is not None:
        kwargs["attack_rate_pps"] = attack_rate
    pure = run_trial(TrialSpec.from_kwargs(DRIVERS[driver](), 6_000,
                                           backend="pure", **kwargs))
    fast = run_trial(TrialSpec.from_kwargs(DRIVERS[driver](), 6_000,
                                           backend="fast", **kwargs))
    assert fast.backend == FASTCORE_KIND
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


MITIGATED = [
    ("polling-mitigate", lambda: variants.polling(mitigate=True)),
    ("clocked-mitigate", lambda: variants.clocked(mitigate=True)),
    (
        "polling-screend-mitigate",
        lambda: variants.polling(screend=True, mitigate=True),
    ),
]


@pytest.mark.parametrize(
    "name,factory", MITIGATED, ids=[name for name, _ in MITIGATED]
)
def test_mitigation_controller_bit_identical(name, factory):
    """The closed-loop mitigation controller samples kernel state on
    clock callouts; its sampling order must survive the compiled clock
    handler and IRQ dispatch."""
    kwargs = dict(
        TIMING, seed=5, workload="composite", attack_rate_pps=20_000
    )
    pure = run_trial(TrialSpec.from_kwargs(factory(), 5_000,
                                           backend="pure", **kwargs))
    fast = run_trial(TrialSpec.from_kwargs(factory(), 5_000,
                                           backend="fast", **kwargs))
    assert fast.backend == FASTCORE_KIND
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


@pytest.mark.parametrize("mitigate", [False, True], ids=["bare", "mitigated"])
def test_scenario_slo_verdicts_match_on_fast_backend(mitigate):
    """Full scenario runs (baseline → attack → recovery) must reach the
    same structured SLO verdict on either backend."""
    from repro.experiments.scenarios import run_scenario

    pure = run_scenario("syn-flood", mitigate=mitigate, seed=2, backend="pure")
    fast = run_scenario("syn-flood", mitigate=mitigate, seed=2, backend="fast")
    assert fast.backend == FASTCORE_KIND
    assert pure.slo == fast.slo
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


def test_teardown_leak_accounting_on_fast_backend():
    """``Router.teardown`` must balance the pool's books with the
    compiled packet path installed: every packet parked in rings,
    queues, or suspended C handler frames is recovered, leaked == 0,
    and the report matches the pure backend's byte for byte."""
    from repro.experiments.topology import Router
    from repro.workloads.generators import ConstantRateGenerator

    reports = {}
    for backend in ("pure", "fast"):
        router = Router(variants.polling(), sim=make_simulator(backend))
        router.start()
        generator = ConstantRateGenerator(
            router.sim, router.nic_in, 9_000, pool=router.packet_pool
        ).start()
        router.run_for(50_000_000)  # 50 ms: queues under load
        generator.stop()
        report = router.teardown(drain_ns=5_000_000)
        assert report["leaked"] == 0, (backend, report)
        reports[backend] = report
    assert reports["pure"] == reports["fast"]


def test_traced_faulted_trial_stays_compiled():
    """Arming a trace ring, the watchdog and a fault plan leaves the
    compiled packet path installed on a fast-c router: the C bodies
    record in place and hand fault decisions to Python, and the trial
    still equals the pure oracle bit for bit."""
    from repro.experiments.topology import Router

    spec = TrialSpec(
        variants.unmodified(),
        9_000,
        seed=3,
        workload="poisson",
        fault_plan="lossy-nic",
        watchdog=True,
        trace=True,
        **TIMING,
    )
    pure = run_trial(spec.replace(backend="pure"))
    router = Router(spec.config, sim=make_simulator("fast"))
    fast = run_trial(spec.replace(backend="fast"), router=router)
    if FASTCORE_KIND == "fast-c":
        for nic in (router.nic_in, router.nic_out):
            assert "receive_from_wire" in nic.__dict__, nic.name
            assert "_transmit_complete" in nic.__dict__, nic.name
        for cpu in router.kernel.cpus:
            assert "task" in cpu.__dict__, cpu.name
            assert "_complete" in cpu.__dict__, cpu.name
        for controller in router.kernel.controllers:
            assert "try_deliver" in controller.__dict__, controller.cpu.name
    assert pure.faults["injected"]
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


def test_backend_never_enters_fingerprint():
    """Cache identity is the physics, not the engine that computed it."""
    config = variants.polling()
    base = trial_fingerprint(config, 5_000, dict(TIMING, seed=1))
    assert base == trial_fingerprint(
        config, 5_000, dict(TIMING, seed=1, backend="pure")
    )
    assert base == trial_fingerprint(
        config, 5_000, dict(TIMING, seed=1, backend="fast")
    )
    assert base != trial_fingerprint(config, 5_000, dict(TIMING, seed=2))


def test_sanitize_falls_back_to_pure_with_logged_reason(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.backend"):
        result = run_trial(TrialSpec.from_kwargs(
            variants.unmodified(),
            4_000,
            seed=0,
            sanitize=True,
            backend="fast",
            **TIMING,
        ))
    assert result.backend == "pure"
    assert any("falling back to backend=pure" in rec.message for rec in caplog.records)


def test_resolve_backend_env_and_validation(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend(None) == "pure"
    monkeypatch.setenv("REPRO_BACKEND", "fast")
    assert resolve_backend(None) == "fast"
    assert resolve_backend("pure") == "pure"
    with pytest.raises(ValueError):
        resolve_backend("turbo")
    monkeypatch.setenv("REPRO_BACKEND", "turbo")
    with pytest.raises(ValueError):
        resolve_backend(None)


def test_make_simulator_reports_backend():
    pure = make_simulator("pure")
    fast = make_simulator("fast")
    assert type(pure) is Simulator
    assert pure.backend_name == "pure"
    assert isinstance(fast, FastCore)
    assert fast.backend_name == FASTCORE_KIND
    assert "backend=%s" % FASTCORE_KIND in repr(fast)
    assert fast.stats["backend"] == FASTCORE_KIND
