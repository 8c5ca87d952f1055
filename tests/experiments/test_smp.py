"""Multi-core trials: determinism, single-core identity, compiled-path
parity on every core, and the SMP livelock-onset shift.

The determinism contract (DESIGN.md §14): every core is stepped by the
one calendar-queue simulator with a fixed core-index tie-break, so a
multi-core trial is as replayable as a single-core one — serial,
parallel-jobs, and cached runs of the same spec agree bit for bit, and
a ``cores=1`` machine is byte-identical to no machine at all.
"""

from dataclasses import asdict

import pytest

from repro._fastcore import FASTCORE_KIND
from repro.core import variants
from repro.experiments.engine import run_trials, trial_fingerprint
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec, WorkloadSpec
from repro.experiments.topology import Router
from repro.hw.cpu import CLASS_USER
from repro.hw.machine import STEERING_AFFINITY, STEERING_RSS, MachineSpec
from repro.sim.backend import make_simulator
from repro.sim.process import Work

from .test_backend_parity import assert_only_bindings_in_dicts

TIMING = dict(duration_s=0.06, warmup_s=0.02)

DRIVERS = {
    "unmodified": variants.unmodified,
    "polling": lambda: variants.polling(quota=10),
    "hybrid": lambda: variants.hybrid(quota=10),
    "clocked": variants.clocked,
}


def _spec(driver, cores, steering, rate=9_000, **kw):
    machine = None
    if cores > 1:
        machine = MachineSpec(cores=cores, steering=steering,
                              isolate_polling=True)
    return TrialSpec.from_kwargs(
        DRIVERS[driver](), rate, machine=machine, seed=2, **dict(TIMING, **kw)
    )


# ----------------------------------------------------------------------
# Determinism matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("steering", [STEERING_AFFINITY, STEERING_RSS])
def test_multicore_trials_deterministic(driver, cores, steering):
    first = run_trial(_spec(driver, cores, steering))
    second = run_trial(_spec(driver, cores, steering))
    assert asdict(first) == asdict(second)


def test_serial_parallel_and_cached_agree(tmp_path):
    specs = [
        _spec("polling", 4, STEERING_RSS),
        _spec("unmodified", 2, STEERING_AFFINITY),
    ]
    serial = run_trials(specs)
    parallel = run_trials(specs, jobs=2)
    cold = run_trials(specs, cache=True, cache_dir=tmp_path)
    warm = run_trials(specs, cache=True, cache_dir=tmp_path)
    assert serial == parallel == cold == warm


# ----------------------------------------------------------------------
# cores=1 identity: an explicit single-core machine IS the seed machine
# ----------------------------------------------------------------------

def test_cores_one_machine_matches_no_machine():
    config = variants.polling(quota=10)
    bare = run_trial(TrialSpec.from_kwargs(config, 9_000, seed=2, **TIMING))
    explicit = run_trial(TrialSpec.from_kwargs(
        config, 9_000, seed=2, machine=MachineSpec(cores=1), **TIMING
    ))
    assert asdict(bare) == asdict(explicit)


def test_machine_none_fingerprints_like_omitted():
    config = variants.unmodified()
    base = TrialSpec.from_kwargs(config, 5_000, seed=1, **TIMING)
    with_none = TrialSpec.from_kwargs(
        config, 5_000, seed=1, machine=None, **TIMING
    )
    assert with_none.fingerprint() == base.fingerprint()


def test_multicore_machine_changes_the_fingerprint():
    config = variants.unmodified()
    base = TrialSpec.from_kwargs(config, 5_000, **TIMING)
    smp = TrialSpec.from_kwargs(
        config, 5_000, machine=MachineSpec(cores=4), **TIMING
    )
    assert smp.fingerprint() != base.fingerprint()


def test_flat_machine_kwargs_canonicalize():
    config = variants.unmodified()
    flat = TrialSpec.from_kwargs(
        config, 5_000, cores=4, steering=STEERING_RSS,
        isolate_polling=True, **TIMING
    )
    nested = TrialSpec.from_kwargs(
        config, 5_000,
        machine=MachineSpec(cores=4, steering=STEERING_RSS,
                            isolate_polling=True),
        **TIMING
    )
    assert flat == nested
    assert flat.fingerprint() == nested.fingerprint()


def test_flat_machine_kwargs_conflict_with_explicit_machine():
    with pytest.raises(TypeError):
        TrialSpec.from_kwargs(
            variants.unmodified(), 5_000,
            cores=2, machine=MachineSpec(cores=2), **TIMING
        )


def test_workload_spec_flattens_like_flat_kwargs():
    config = variants.unmodified()
    nested = TrialSpec.from_kwargs(
        config, 5_000, workload=WorkloadSpec("bursty", burst_size=16), **TIMING
    )
    flat = TrialSpec.from_kwargs(
        config, 5_000, workload="bursty", burst_size=16, **TIMING
    )
    assert nested == flat
    assert nested.fingerprint() == flat.fingerprint()


def test_workload_spec_conflicts_with_flat_kwargs():
    with pytest.raises(TypeError):
        TrialSpec.from_kwargs(
            variants.unmodified(), 5_000,
            workload=WorkloadSpec("bursty"), burst_size=8, **TIMING
        )


# ----------------------------------------------------------------------
# Compiled packet path at cores > 1
# ----------------------------------------------------------------------

@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_fast_backend_runs_compiled_on_every_core(driver):
    """The compiled packet path binds every core of a cores=4 RSS
    machine, and the result still equals the pure oracle bit for bit."""
    spec = _spec(driver, 4, STEERING_RSS)
    pure = run_trial(spec.replace(backend="pure"))
    router = Router(
        spec.config, sim=make_simulator("fast"), machine=spec.machine
    )
    # A pre-built router carries the machine itself.
    fast = run_trial(spec.replace(backend="fast", machine=None), router=router)
    if FASTCORE_KIND == "fast-c":
        for cpu in router.kernel.cpus:
            assert "task" in cpu.__dict__, cpu.name
        for controller in router.kernel.controllers:
            assert "try_deliver" in controller.__dict__, controller.cpu.name
        assert_only_bindings_in_dicts(router)
    pure_d, fast_d = asdict(pure), asdict(fast)
    pure_d.pop("backend")
    fast_d.pop("backend")
    assert pure_d == fast_d


def _spin(cycles):
    while True:
        yield Work(cycles)


def test_quantum_rotation_on_a_non_zero_core_matches_pure():
    """The clock handler rotates the interrupted user thread of *every*
    core at a quantum boundary, compiled or not."""
    used = {}
    for backend in ("pure", "fast"):
        router = Router(
            variants.unmodified(),
            sim=make_simulator(backend),
            machine=MachineSpec(cores=2),
        )
        router.start()
        core = router.kernel.cpus[1]
        spinners = [
            core.spawn(_spin(3_000_000), "spin%d" % i, priority_class=CLASS_USER)
            for i in range(2)
        ]
        router.run_for(200_000_000)
        used[backend] = [task.cycles_used for task in spinners]
    assert used["fast"] == used["pure"]


# ----------------------------------------------------------------------
# The headline SMP result: livelock onset moves out with cores
# ----------------------------------------------------------------------

def test_rss_steered_polling_raises_capacity_over_single_core():
    """A cores=4 RSS-steered polled-driver trial sustains measurably
    more output at an overload rate than the single-core machine (the
    acceptance criterion behind the smp-onset figure)."""
    single = run_trial(_spec("polling", 1, STEERING_RSS))
    quad = run_trial(_spec("polling", 4, STEERING_RSS))
    assert quad.output_rate_pps > single.output_rate_pps * 1.15


def test_watchdog_reports_per_core_utilisation_only_at_multicore():
    single = run_trial(TrialSpec.from_kwargs(
        variants.polling(quota=10), 9_000, watchdog=True, **TIMING
    ))
    quad = run_trial(TrialSpec.from_kwargs(
        variants.polling(quota=10), 9_000, watchdog=True,
        machine=MachineSpec(cores=4, steering=STEERING_RSS,
                            isolate_polling=True),
        **TIMING
    ))
    assert "cores" not in single.watchdog  # pre-SMP verdict shape
    cores = quad.watchdog["cores"]
    assert len(cores) == 4
    for entry in cores:
        assert 0.0 <= entry["busy_fraction"] <= 1.0
