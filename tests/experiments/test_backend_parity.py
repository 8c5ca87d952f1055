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

import gc
import json
import logging

import pytest

from repro._fastcore import FASTCORE_KIND, FastCore, packetpath
from repro.core import variants
from repro.experiments.engine import trial_fingerprint
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.experiments.results import trial_to_dict
from repro.hw.machine import STEERING_RSS, MachineSpec
from repro.sim.backend import make_simulator, resolve_backend
from repro.sim.simulator import Simulator
from repro.trace.buffer import TraceBuffer

from ..cores import needs_corec

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


@needs_corec
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


@needs_corec
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


#: The golden fixture's bursty cells use the default 32-packet bursts;
#: these two drivers also run 16-packet bursts at overload.
BURSTY_16 = ["unmodified", "polling"]


@needs_corec
@pytest.mark.parametrize("driver", BURSTY_16)
def test_bursty_16_at_overload_bit_identical(driver):
    kwargs = dict(TIMING, seed=0, workload="bursty", burst_size=16)
    pure = run_trial(TrialSpec.from_kwargs(DRIVERS[driver](), 12_000,
                                           backend="pure", **kwargs))
    fast = run_trial(TrialSpec.from_kwargs(DRIVERS[driver](), 12_000,
                                           backend="fast", **kwargs))
    assert fast.backend == FASTCORE_KIND
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


ADVERSARIAL = [
    ("unmodified", "synflood", None),
    ("polling", "flashcrowd", None),
    ("high_ipl", "composite", 6_000),
    ("clocked", "composite", None),
]


@needs_corec
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


@needs_corec
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


@needs_corec
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


@needs_corec
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


def assert_only_bindings_in_dicts(router):
    """The data of every CPU, NIC, interrupt line and queue lives in
    slots: each instance ``__dict__`` holds only the compiled entry
    points ``packetpath`` bound on that object."""
    bound = {}
    for owner, attr in router.__dict__[packetpath._PP_STATE]["bound"]:
        bound.setdefault(id(owner), set()).add(attr)
    queues = [router.driver_in.ifqueue, router.driver_out.ifqueue]
    if router.ip_input is not None:
        queues.append(router.ip_input.ipintrq)
    if router.screen_queue is not None:
        queues.append(router.screen_queue)
    owners = [router.nic_in, router.nic_out, *queues]
    owners += [*router.kernel.cpus, *router.kernel.irq_lines()]
    for obj in owners:
        extra = set(vars(obj)) - bound.get(id(obj), set())
        assert not extra, (obj, sorted(extra))


@needs_corec
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
    for nic in (router.nic_in, router.nic_out):
        assert "receive_from_wire" in nic.__dict__, nic.name
        assert "_transmit_complete" in nic.__dict__, nic.name
    for cpu in router.kernel.cpus:
        assert "task" in cpu.__dict__, cpu.name
        assert "_complete" in cpu.__dict__, cpu.name
    for controller in router.kernel.controllers:
        assert "try_deliver" in controller.__dict__, controller.cpu.name
    assert_only_bindings_in_dicts(router)
    assert pure.faults["injected"]
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


#: Branches of the compiled kernel-thread bodies that the driver matrix
#: leaves out, each with the counter that proves the trial reached it:
#: the cycle-limiter pass, input inhibited mid-drain by screend
#: feedback, the clocked quota retuned mid-drain by mitigation, batch
#: ring pulls, NAPI coalescing (its Sleep and _adapt), the softirq
#: drain, and the classic kernel's input feedback.
THREAD_BRANCHES = {
    "polling-limit-compute": (
        lambda: variants.polling(cycle_limit=0.5),
        {"with_compute": True},
        "cyclelimit.inhibitions",
    ),
    "polling-screend-feedback": (
        lambda: variants.polling(screend=True, feedback=True),
        {},
        "feedback.screenq.inhibits",
    ),
    "clocked-mitigate": (
        lambda: variants.clocked(mitigate=True),
        {"workload": "composite", "attack_rate_pps": 20_000},
        "mitigation.escalations",
    ),
    "clocked-batch-pull": (
        lambda: variants.clocked().with_options(rx_batch_pull=True),
        {},
        "driver.in0.clocked_polls",
    ),
    "hybrid-coalesce": (
        variants.hybrid,
        {"coalesce_us": 50},
        "driver.in0.coalesce_grows",
    ),
    "unmodified-softirq": (
        lambda: variants.unmodified(ip_layer_mode="softirq"),
        {},
        "queue.ipintrq.dequeued",
    ),
    "unmodified-input-feedback": (
        lambda: variants.unmodified(input_feedback=True),
        {},
        "ipintrq.input_inhibits",
    ),
}
SMP4 = dict(cores=4, steering=STEERING_RSS, isolate_polling=True)


@needs_corec
@pytest.mark.parametrize("cores", [1, 4])
@pytest.mark.parametrize("name", sorted(THREAD_BRANCHES))
def test_thread_body_branches_bit_identical(name, cores):
    factory, extra, counter = THREAD_BRANCHES[name]
    kwargs = dict(TIMING, seed=3, workload="bursty")
    kwargs.update(extra)
    if cores == 4:
        kwargs.update(SMP4)
    pure = run_trial(TrialSpec.from_kwargs(factory(), 12_000,
                                           backend="pure", **kwargs))
    fast = run_trial(TrialSpec.from_kwargs(factory(), 12_000,
                                           backend="fast", **kwargs))
    assert fast.backend == FASTCORE_KIND
    assert pure.counters[counter] > 0
    assert _canonical_bytes(pure) == _canonical_bytes(fast)


@needs_corec
@pytest.mark.parametrize("machine", [None, MachineSpec(**SMP4)],
                         ids=["1core", "smp4"])
@pytest.mark.parametrize(
    "factory",
    [
        variants.polling,
        variants.hybrid,
        variants.clocked,
        variants.unmodified,
        lambda: variants.unmodified(ip_layer_mode="softirq"),
    ],
    ids=["polling", "hybrid", "clocked", "unmodified", "unmodified-softirq"],
)
def test_every_kernel_thread_runs_a_compiled_body(factory, machine):
    """On fast-c no kernel thread, idle loop, hybrid stub or softnet
    handler resumes a Python generator: the polling, NAPI, clocked and
    netisr threads and every core's idle loop run a compiled body from
    spawn, and every device and softnet line has a compiled handler."""
    from repro.experiments.topology import Router

    router = Router(factory(), sim=make_simulator("fast"), machine=machine)
    router.start()
    router.run_for(5_000_000)
    threads = [system.thread for system in router.polling_systems]
    threads += [
        drv.thread
        for drv in (router.driver_in, router.driver_out)
        if getattr(drv, "thread", None) is not None
    ]
    if router.ip_input is not None and router.ip_input._thread is not None:
        threads.append(router.ip_input._thread)
    idle = [
        task
        for cpu in router.kernel.cpus
        for task in cpu._remaining
        if task.name.startswith("idle")
    ]
    assert len(idle) == len(router.kernel.cpus)
    for task in threads + idle:
        assert type(task._body).__name__ == "_PPGen", task.name
    lines = router.kernel.irq_lines()
    assert all("_pp_irq" in line.__dict__ for line in lines), [
        line.name for line in lines if "_pp_irq" not in line.__dict__
    ]
    packetpath.uninstall(router)
    for owner in (router.kernel, *router.polling_systems, router.ip_input,
                  router.driver_in, router.driver_out):
        assert not any(
            name.endswith("_body") for name in getattr(owner, "__dict__", {})
        ), owner


@needs_corec
def test_profile_counts_python_task_bodies_as_python():
    """Under --profile, a Python task body that compiled code resumes
    (screend here) is Python time: its resumes add to the python bucket
    and to ``python_callback_calls``."""
    from repro._fastcore import _corec

    def profiled(config):
        _corec.profile_buckets(True)
        try:
            result = run_trial(TrialSpec(
                config, 6_000, seed=1, backend="fast", **TIMING
            ))
            return result, _corec.profile_snapshot()
        finally:
            _corec.profile_buckets(False)

    _, plain = profiled(variants.polling())
    screened, split = profiled(variants.polling(screend=True, feedback=True))
    assert screened.backend == FASTCORE_KIND
    assert 0 < split["python_callback_s"] <= split["run_s"]
    extra = split["python_callback_calls"] - plain["python_callback_calls"]
    assert extra >= screened.counters["screend.accepted"] > 0


GC_CASES = {
    "unmodified-12k": TrialSpec(
        variants.unmodified(), 12_000, seed=3, **TIMING
    ),
    "hybrid-q10-9k-smp4": TrialSpec(
        variants.hybrid(quota=10),
        9_000,
        seed=3,
        machine=MachineSpec(cores=4, steering=STEERING_RSS, isolate_polling=True),
        **TIMING,
    ),
}


@needs_corec
@pytest.mark.parametrize("name", sorted(GC_CASES))
def test_compiled_dispatch_leaves_no_cyclic_garbage(name):
    """A finished handler task drops its compiled ``deliver`` binding,
    which would otherwise hold the task in a reference cycle: a fast
    trial leaves the cyclic collector no more garbage than a pure one.
    Each backend runs the spec once to warm up, then again with the
    collector off; ``gc.collect()`` then counts what that trial left."""

    def unreachable(backend):
        spec = GC_CASES[name].replace(backend=backend)
        run_trial(spec)
        gc.collect()
        gc.disable()
        try:
            run_trial(spec)
            return gc.collect()
        finally:
            gc.enable()

    pure = unreachable("pure")
    assert unreachable("fast") <= pure


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


def test_fast_falls_back_to_pure_without_corec(monkeypatch, caplog):
    """Where ``_corec`` is absent, ``backend="fast"`` builds the pure
    oracle and says so: one logged reason per simulator built, and the
    trial reports the core that ran, ``pure``."""
    import repro._fastcore as fastcore

    monkeypatch.setattr(fastcore, "FastCore", None)
    monkeypatch.setattr(fastcore, "FASTCORE_KIND", "pure")
    monkeypatch.setattr(fastcore, "FASTCORE_ERROR", ImportError("no _corec"))
    spec = TrialSpec(variants.unmodified(), 4_000, seed=0, **TIMING)
    with caplog.at_level(logging.WARNING, logger="repro.backend"):
        assert type(make_simulator("fast")) is Simulator
        result = run_trial(spec.replace(backend="fast"))
    assert result.backend == "pure"
    fallbacks = [
        rec for rec in caplog.records
        if "falling back to backend=pure" in rec.message
    ]
    assert len(fallbacks) == 2


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


@needs_corec
def test_make_simulator_reports_backend():
    pure = make_simulator("pure")
    fast = make_simulator("fast")
    assert type(pure) is Simulator
    assert pure.backend_name == "pure"
    assert isinstance(fast, FastCore)
    assert fast.backend_name == FASTCORE_KIND
    assert "backend=%s" % FASTCORE_KIND in repr(fast)
    assert fast.stats["backend"] == FASTCORE_KIND
