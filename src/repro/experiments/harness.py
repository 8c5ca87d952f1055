"""Trial runner: one (kernel config, input rate) measurement.

Follows the paper's methodology (§6.1): run traffic at a target rate
through the router-under-test, let the system reach steady state
(warm-up), then measure the delivered packet rate over a window by
sampling the output interface counter before and after — the ``netstat``
"Opkts" technique. Optionally a compute-bound process measures available
user-mode CPU (§7).
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.variants import describe
from ..hw.machine import MachineSpec
from ..kernel.config import KernelConfig
from ..sim.backend import FAST, PURE, make_simulator, resolve_backend
from ..sim.randomness import RandomStreams
from ..sim.units import NS_PER_SEC, ns_to_cycles, seconds
from ..workloads.adversarial import (
    CompositeGenerator,
    FlashCrowdGenerator,
    SynFloodGenerator,
)
from ..workloads.generators import (
    BurstyGenerator,
    ConstantRateGenerator,
    PoissonGenerator,
)
# Workload names and default timing live in .spec (the canonical trial
# description) and are re-exported here for compatibility.
from .spec import (  # noqa: F401  (re-exports)
    DEFAULT_DURATION_S,
    DEFAULT_WARMUP_S,
    TrialSpec,
    WORKLOAD_BURSTY,
    WORKLOAD_COMPOSITE,
    WORKLOAD_CONSTANT,
    WORKLOAD_FLASHCROWD,
    WORKLOAD_POISSON,
    WORKLOAD_SYNFLOOD,
    spec_tuple,
)
from .topology import Router


@dataclass
class TrialResult:
    """Everything measured in one trial."""

    variant: str
    target_rate_pps: float
    offered_rate_pps: float
    output_rate_pps: float
    delivered: int
    generated: int
    duration_s: float
    user_cpu_share: Optional[float] = None
    latency_us: Dict[str, float] = field(default_factory=dict)
    drops: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Structured livelock-watchdog verdict (None unless ``watchdog=True``).
    watchdog: Optional[Dict] = None
    #: Fault-injection record: the plan, injected-fault counts, and the
    #: teardown reconciliation report (None for fault-free trials).
    faults: Optional[Dict] = None
    #: Windowed telemetry (:meth:`repro.trace.Timeline.to_dict`); None
    #: unless the trial ran with ``trace`` enabled.
    timeline: Optional[Dict] = None
    #: Structured SLO verdict (:mod:`repro.experiments.scenarios`); None
    #: unless the trial was produced by a named scenario run.
    slo: Optional[Dict] = None
    #: Name of the simulator core that computed this trial (``"pure"``,
    #: ``"fast-c"``, ``"fast-mypyc"``, ``"fast-py"``) — attribution
    #: only, never part of trial identity: the backends are
    #: bit-identical, results are comparable (and cacheable) across
    #: them. None when an injected router's simulator predates the
    #: backend split.
    backend: Optional[str] = None

    @property
    def loss_fraction(self) -> float:
        if self.generated == 0:
            return 0.0
        return max(0.0, 1.0 - self.delivered / self.generated)

    def as_point(self):
        """(offered, delivered) rate pair for figure series."""
        return (self.offered_rate_pps, self.output_rate_pps)


def _make_generator(
    workload: str,
    router: Router,
    rate_pps: float,
    streams: RandomStreams,
    burst_size: int,
    attack_rate_pps: Optional[float] = None,
):
    pool = getattr(router, "packet_pool", None)
    # Link faults interpose a wire between generator and NIC; fault-free
    # routers leave wire_in as None and keep the direct NIC binding.
    wire = getattr(router, "wire_in", None)
    if workload == WORKLOAD_CONSTANT:
        return ConstantRateGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            jitter_fraction=0.05,
            rng=streams.stream("traffic"),
            pool=pool,
            wire=wire,
        )
    if workload == WORKLOAD_POISSON:
        return PoissonGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            rng=streams.stream("traffic"),
            pool=pool,
            wire=wire,
        )
    if workload == WORKLOAD_BURSTY:
        return BurstyGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            burst_size=burst_size,
            rng=streams.stream("traffic"),
            pool=pool,
            wire=wire,
        )
    if workload == WORKLOAD_SYNFLOOD:
        return SynFloodGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            rng=streams.stream("attack"),
            pool=pool,
            wire=wire,
        )
    if workload == WORKLOAD_FLASHCROWD:
        return FlashCrowdGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            rng=streams.stream("attack"),
            pool=pool,
            wire=wire,
        )
    if workload == WORKLOAD_COMPOSITE:
        background = ConstantRateGenerator(
            router.sim,
            router.nic_in,
            rate_pps,
            jitter_fraction=0.05,
            rng=streams.stream("traffic"),
            flow="legit",
            name="legit",
            pool=pool,
            wire=wire,
        )
        attack = SynFloodGenerator(
            router.sim,
            router.nic_in,
            attack_rate_pps if attack_rate_pps is not None else 4 * rate_pps,
            rng=streams.stream("attack"),
            pool=pool,
            wire=wire,
        )
        return CompositeGenerator(router.sim, background, attack)
    raise ValueError("unknown workload %r" % workload)


def _resolve_fault_plan(fault_plan):
    """Accept a FaultPlan, a canned-plan name, or None."""
    if fault_plan is None:
        return None
    if isinstance(fault_plan, str):
        from ..faults import canned_plan

        return canned_plan(fault_plan)
    return fault_plan


def run_trial(
    config,
    rate_pps: Optional[float] = None,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    seed: int = 0,
    workload: str = WORKLOAD_CONSTANT,
    burst_size: int = 32,
    attack_rate_pps: Optional[float] = None,
    with_compute: bool = False,
    router: Optional[Router] = None,
    fault_plan=None,
    watchdog: bool = False,
    sanitize: bool = False,
    trace=False,
    trace_capacity: Optional[int] = None,
    backend: Optional[str] = None,
    machine: Optional[MachineSpec] = None,
) -> TrialResult:
    """Run one trial and return its measurements.

    The canonical entry point takes a single
    :class:`~repro.experiments.spec.TrialSpec`::

        run_trial(TrialSpec(config, rate_pps=8_000, watchdog=True))

    The historical keyword form ``run_trial(config, rate_pps, **kw)``
    still works and is exactly equivalent (same results, same cache
    fingerprints), but it is **deprecated** — it emits a
    :class:`DeprecationWarning` and will eventually require a spec.

    ``rate_pps`` of 0 runs an unloaded router (used for the fig 7-1
    zero-load point). Pass ``router`` to reuse a pre-built topology
    (e.g. one with a monitor attached); it must not be started yet.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan` or a canned-plan
    name) arms deterministic hardware fault injection; the plan is part
    of the trial's identity for caching. ``watchdog=True`` attaches the
    livelock watchdog and records its verdict on the result;
    ``sanitize=True`` runs the runtime invariant sanitizer throughout
    the trial and reconciles packet-pool ownership at the end. Both are
    opt-in: the watchdog schedules its own periodic event and so
    perturbs event sequence numbers relative to a bare trial.

    ``trace`` arms the scheduling-level trace subsystem: ``True``
    creates a fresh :class:`~repro.trace.TraceBuffer` (ring capacity
    ``trace_capacity``) plus a windowed :class:`~repro.trace.Timeline`,
    or pass a caller-owned ``TraceBuffer`` to keep the raw record ring
    for export afterwards. Tracing schedules no simulator events and
    draws no randomness, so a traced trial's event stream — and every
    measured field of its ``TrialResult`` — is bit-identical to the
    untraced trial; only :attr:`TrialResult.timeline` is added.

    ``backend`` selects the simulator core: ``"pure"`` (default, the
    reference oracle) or ``"fast"`` (the compiled
    :mod:`repro._fastcore`); None consults ``REPRO_BACKEND``. The cores
    are bit-identical, so this changes speed, never results.
    ``sanitize=True`` forces ``pure`` (the sanitizer's per-event hook
    and queue rescans are a pure-core feature); an explicitly injected
    ``router`` keeps whatever simulator it was built with.

    ``machine`` (a :class:`~repro.hw.machine.MachineSpec`) selects the
    core topology; None is the paper's single-core machine. The
    compiled fast path binds every core and stays installed with a trace
    or fault plan armed, so ``backend="fast"`` runs compiled bodies at
    any core count, observed or not.
    """
    if isinstance(config, TrialSpec):
        if rate_pps is not None:
            raise TypeError(
                "run_trial(spec) takes no separate rate_pps; "
                "it is part of the TrialSpec"
            )
        kwargs = config.to_kwargs()
        if router is not None:
            kwargs["router"] = router
        return _run_trial_impl(config.config, config.rate_pps, **kwargs)
    warnings.warn(
        "run_trial(config, rate_pps, **kwargs) is deprecated; construct "
        "a TrialSpec (repro.experiments.spec.TrialSpec.from_kwargs takes "
        "the same keywords) and call run_trial(spec)",
        DeprecationWarning,
        stacklevel=2,
    )
    return _run_trial_impl(
        config,
        rate_pps,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        workload=workload,
        burst_size=burst_size,
        attack_rate_pps=attack_rate_pps,
        with_compute=with_compute,
        router=router,
        fault_plan=fault_plan,
        watchdog=watchdog,
        sanitize=sanitize,
        trace=trace,
        trace_capacity=trace_capacity,
        backend=backend,
        machine=machine,
    )


def _run_trial_impl(
    config,
    rate_pps: Optional[float] = None,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    seed: int = 0,
    workload: str = WORKLOAD_CONSTANT,
    burst_size: int = 32,
    attack_rate_pps: Optional[float] = None,
    with_compute: bool = False,
    router: Optional[Router] = None,
    fault_plan=None,
    watchdog: bool = False,
    sanitize: bool = False,
    trace=False,
    trace_capacity: Optional[int] = None,
    backend: Optional[str] = None,
    machine: Optional[MachineSpec] = None,
) -> TrialResult:
    """The actual trial runner (see :func:`run_trial` for the contract).

    Internal callers (the sweep engine, the spec dispatch above) come
    here directly so the legacy-keyword deprecation warning fires only
    for *external* raw-keyword calls.
    """
    if rate_pps is None:
        raise TypeError("run_trial(config, rate_pps, ...) requires a rate")
    if router is not None and machine is not None:
        raise TypeError(
            "machine= describes the router to build; it cannot be "
            "combined with a pre-built router"
        )
    if rate_pps < 0:
        raise ValueError("rate must be non-negative")
    plan = _resolve_fault_plan(fault_plan)
    if router is None:
        resolved_backend = resolve_backend(backend)
        if sanitize and resolved_backend == FAST:
            logging.getLogger("repro.backend").warning(
                "sanitize=True requires the pure backend's per-event "
                "drain loop; falling back to backend=pure "
                "(fast was requested)"
            )
            resolved_backend = PURE
        router = Router(
            config, sim=make_simulator(resolved_backend), machine=machine
        )
    if plan is not None:
        router.arm_faults(plan)
    if with_compute:
        router.add_compute_process()
    sanitizer = None
    if sanitize:
        from ..sim.sanitize import InvariantSanitizer

        sanitizer = InvariantSanitizer(router).attach()
    router.start()
    trace_buffer = None
    timeline = None
    # NB: an *empty* caller-owned TraceBuffer is len()-falsy, so test
    # identity against the disabled sentinels, not truthiness.
    if trace is not False and trace is not None:
        from ..trace.buffer import TraceBuffer
        from ..trace.timeline import Timeline

        if isinstance(trace, bool):
            trace_buffer = (
                TraceBuffer(trace_capacity)
                if trace_capacity is not None
                else TraceBuffer()
            )
        else:
            trace_buffer = trace  # caller-owned buffer (kept for export)
        timeline = trace_buffer.timeline
        if timeline is None:
            # Window the time series exactly like the watchdog samples.
            timeline = Timeline(
                config.watchdog_window_ticks * config.clock_tick_ns
            )
            trace_buffer.attach_timeline(timeline)
        router.attach_trace(trace_buffer)
    streams = RandomStreams(seed)
    generator = None
    if rate_pps > 0:
        generator = _make_generator(
            workload, router, rate_pps, streams, burst_size,
            attack_rate_pps=attack_rate_pps,
        ).start()
        if trace_buffer is not None:
            generator.trace = trace_buffer
    wd = None
    if watchdog:
        from ..sim.watchdog import LivelockWatchdog

        wd = LivelockWatchdog(
            router.sim,
            router.delivered,
            (router.nic_in.rx_accepted, router.nic_in.rx_overflow_drops),
            window_ns=config.watchdog_window_ticks * config.clock_tick_ns,
            user_cycles=(
                router.compute.cycles_used if router.compute is not None else None
            ),
            trace=trace_buffer,
            # Per-core health sampling only exists on multi-core
            # machines, so single-core verdicts keep their exact
            # pre-SMP shape.
            cpus=(
                router.kernel.cpus if len(router.kernel.cpus) > 1 else None
            ),
        ).start()

    router.run_for(seconds(warmup_s))

    delivered_before = router.delivered.snapshot()
    generated_before = generator.sent if generator is not None else 0
    compute_before = (
        router.compute.cycles_used() if router.compute is not None else 0
    )
    window_start_ns = router.sim.now
    router.latency.start()
    if timeline is not None:
        timeline.mark("measure_start", window_start_ns)

    router.run_for(seconds(duration_s))

    router.latency.stop()
    if timeline is not None:
        timeline.mark("measure_end", router.sim.now)
    window_ns = router.sim.now - window_start_ns
    delivered = router.delivered.snapshot() - delivered_before
    generated = (generator.sent if generator is not None else 0) - generated_before
    output_rate = delivered * NS_PER_SEC / window_ns
    offered_rate = generated * NS_PER_SEC / window_ns

    user_share: Optional[float] = None
    if router.compute is not None:
        window_cycles = ns_to_cycles(window_ns, config.costs.cpu_hz)
        user_share = router.compute.cpu_share(compute_before, window_cycles)

    if wd is not None:
        wd.stop()
    dump = router.probes.dump()
    drops = {
        name: value
        for name, value in dump.items()
        if ("drop" in name) and value > 0
    }

    faults_record = None
    if plan is not None or sanitize:
        # End-of-trial reconciliation: stop the source, recover every
        # in-flight packet, and balance the pool's books. Skipped for
        # plain trials so their event streams stay byte-identical to
        # the golden fixtures.
        if generator is not None:
            generator.stop()
        report = router.teardown()
        if sanitizer is not None:
            sanitizer.detach()
            sanitizer.check_trial_end(report)
        if plan is not None:
            faults_record = {
                "plan": plan.to_dict(),
                "injected": router.faults.summary(),
                "teardown": report,
            }
    return TrialResult(
        variant=describe(config),
        target_rate_pps=rate_pps,
        offered_rate_pps=offered_rate,
        output_rate_pps=output_rate,
        delivered=delivered,
        generated=generated,
        duration_s=window_ns / NS_PER_SEC,
        user_cpu_share=user_share,
        latency_us=router.latency.summary_us(),
        drops=drops,
        counters=dump,
        watchdog=wd.verdict() if wd is not None else None,
        faults=faults_record,
        timeline=timeline.to_dict() if timeline is not None else None,
        backend=getattr(router.sim, "backend_name", None),
    )


#: Event rate a zero-load trial still sustains (clock ticks, ring
#: service, watchdog windows) — the floor of the cost estimate below.
_IDLE_EVENT_RATE = 2_000.0


def trial_cost_estimate(spec) -> float:
    """Relative wall-clock cost of one trial spec (arbitrary units).

    The event count of a trial is roughly linear in simulated time and
    in the packet rate (each packet is a handful of events), with a
    fixed per-second floor for clock ticks and housekeeping. The sweep
    engine uses this to cut a spec list into equal-cost chunks, so one
    slow 12k-pps trial does not serialize behind a chunk of idle ones.

    Accepts a :class:`TrialSpec` or the engine's ``(config, rate_pps,
    kwargs)`` tuple form.
    """
    _config, rate_pps, kwargs = spec_tuple(spec)
    sim_seconds = kwargs.get("duration_s", DEFAULT_DURATION_S) + kwargs.get(
        "warmup_s", DEFAULT_WARMUP_S
    )
    return max(0.0, sim_seconds) * (max(0.0, rate_pps) + _IDLE_EVENT_RATE)


def run_sweep(
    config: KernelConfig,
    rates: Sequence[float],
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    **trial_kwargs,
) -> List[TrialResult]:
    """Run one trial per input rate (fresh router each time).

    Delegates to :mod:`repro.experiments.engine`: ``jobs`` fans the
    trials across worker processes, ``cache=True`` (optionally with
    ``cache_dir``) reuses on-disk results. Output order and every
    ``TrialResult`` field are identical regardless of jobs/cache.
    Resilience knobs (``timeout_s``, ``retries``, ``retry_backoff_s``,
    ``strict``) pass through: with ``strict=False`` a failed trial
    yields a :class:`repro.experiments.engine.TrialFailure` in place of
    its result instead of aborting the sweep.
    """
    from .engine import run_sweep as engine_run_sweep

    return engine_run_sweep(
        config, rates, jobs=jobs, cache=cache, cache_dir=cache_dir, **trial_kwargs
    )


def sweep_series(results: Sequence[TrialResult]):
    """[(offered_rate, output_rate)] pairs from a sweep, sorted by rate.

    Non-strict sweeps may leave :class:`~repro.experiments.engine.
    TrialFailure` records in the list; failed points are omitted from
    the series (the figure shows the trials that completed)."""
    return sorted(
        result.as_point()
        for result in results
        if not getattr(result, "failed", False)
    )


#: Input-rate grid used by the figure experiments (pkt/s), matching the
#: x-extent of figures 6-1..6-6.
DEFAULT_RATE_GRID = (
    500,
    1_000,
    2_000,
    3_000,
    4_000,
    4_500,
    5_000,
    6_000,
    7_000,
    8_000,
    10_000,
    12_000,
)

#: Coarser grid for quick runs and unit tests.
FAST_RATE_GRID = (1_000, 3_000, 5_000, 8_000, 12_000)
