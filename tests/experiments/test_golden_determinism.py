"""Golden determinism: the packet fast path must not change results.

Two bars, both bit-exact:

* every :func:`run_trial` field — including the ``drops`` and
  ``counters`` dicts — must match the committed
  ``golden_trials.json`` fixture for the full variant x workload x
  rate x seed matrix;
* the current callback-driven, pooled generators must produce the
  same trials as the pre-optimization coroutine generators (frozen
  here as ``Legacy*Generator``), packet for packet.

If an intentional semantic change breaks these, regenerate the fixture
with ``scripts/gen_golden_trials.py`` and say why in the commit.
"""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import pytest

from repro.core import variants
from repro.experiments import harness
from repro.experiments.harness import run_trial
from repro.experiments.spec import TrialSpec
from repro.hw.link import packet_time_ns
from repro.hw.nic import NIC
from repro.net.addresses import parse_ip
from repro.net.packet import Packet
from repro.sim.process import Process, Sleep
from repro.sim.simulator import Simulator
from repro.sim.units import NS_PER_SEC

FIXTURE = Path(__file__).parent / "golden_trials.json"

VARIANTS = {
    "unmodified": variants.unmodified,
    "polling": variants.polling,
    "high_ipl": variants.high_ipl,
    "clocked": variants.clocked,
}
WORKLOADS = ("constant", "poisson", "bursty")
RATES = (3_000, 12_000)
SEEDS = (0, 7)
TIMING = dict(duration_s=0.08, warmup_s=0.03)


def _load_fixture():
    with FIXTURE.open() as handle:
        return json.load(handle)


GOLDEN = _load_fixture()

MATRIX = [
    (variant, workload, rate, seed)
    for variant in VARIANTS
    for workload in WORKLOADS
    for rate in RATES
    for seed in SEEDS
]


def test_fixture_covers_full_matrix():
    expected = {
        "%s|%s|%d|%d" % cell for cell in MATRIX
    }
    assert set(GOLDEN) == expected


def _comparable(result):
    """asdict(result) minus diagnostics fields that postdate the fixture.

    Plain trials must leave both inert — anything else means the fault /
    watchdog machinery leaked into the fault-free path."""
    data = asdict(result)
    assert data.pop("watchdog") is None
    assert data.pop("faults") is None
    assert data.pop("timeline") is None
    assert data.pop("slo") is None
    # Attribution only, never part of trial identity: the backends are
    # bit-identical by contract (and this very test, run under
    # REPRO_BACKEND=fast, is part of the proof).
    assert data.pop("backend") in ("pure", "fast-c", "fast-mypyc", "fast-py")
    return data


@pytest.mark.parametrize(
    "variant,workload,rate,seed",
    MATRIX,
    ids=["%s-%s-%d-%d" % cell for cell in MATRIX],
)
def test_trial_matches_golden(variant, workload, rate, seed):
    result = run_trial(TrialSpec(
        VARIANTS[variant](), rate, seed=seed, workload=workload, **TIMING
    ))
    golden = GOLDEN["%s|%s|%d|%d" % (variant, workload, rate, seed)]
    assert _comparable(result) == golden


# ----------------------------------------------------------------------
# Frozen pre-optimization generators (coroutine trampolining, one Packet
# allocation per emission). They accept and ignore the ``pool`` kwarg so
# the harness can construct them unmodified.
# ----------------------------------------------------------------------


class _LegacyGenerator:
    def __init__(
        self,
        sim: Simulator,
        nic: NIC,
        src: str = "10.1.0.2",
        dst: str = "10.2.0.2",
        dst_port: int = 9,
        payload_bytes: int = 4,
        flow: str = "default",
        name: str = "traffic",
        pool=None,
        wire=None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.src = parse_ip(src)
        self.dst = parse_ip(dst)
        self.dst_port = dst_port
        self.payload_bytes = payload_bytes
        self.flow = flow
        self.name = name
        self.min_interval_ns = packet_time_ns(payload_bytes)
        self.sent = 0
        self.process: Optional[Process] = None

    def start(self):
        if self.process is not None:
            raise RuntimeError("generator %s already started" % self.name)
        self.process = Process(self.sim, self._body(), name=self.name).start()
        return self

    def stop(self) -> None:
        if self.process is not None:
            self.process.kill()

    def _emit(self) -> Packet:
        packet = Packet(
            src=self.src,
            dst=self.dst,
            dst_port=self.dst_port,
            payload_bytes=self.payload_bytes,
            created_ns=self.sim.now,
            flow=self.flow,
        )
        self.nic.receive_from_wire(packet)
        self.sent += 1
        return packet


class LegacyConstantRateGenerator(_LegacyGenerator):
    def __init__(
        self,
        sim,
        nic,
        rate_pps,
        jitter_fraction=0.0,
        rng: Optional[random.Random] = None,
        **kwargs,
    ):
        super().__init__(sim, nic, **kwargs)
        self.jitter_fraction = jitter_fraction
        self.rng = rng
        self.interval_ns = max(
            self.min_interval_ns, int(round(NS_PER_SEC / rate_pps))
        )

    def _body(self):
        while True:
            gap = self.interval_ns
            if self.jitter_fraction > 0.0:
                spread = self.jitter_fraction
                gap = int(gap * self.rng.uniform(1.0 - spread, 1.0 + spread))
                gap = max(self.min_interval_ns, gap)
            yield Sleep(gap)
            self._emit()


class LegacyPoissonGenerator(_LegacyGenerator):
    def __init__(self, sim, nic, rate_pps, rng: random.Random, **kwargs):
        super().__init__(sim, nic, **kwargs)
        self.rng = rng
        self.mean_interval_ns = NS_PER_SEC / rate_pps

    def _body(self):
        while True:
            gap = int(self.rng.expovariate(1.0) * self.mean_interval_ns)
            yield Sleep(max(self.min_interval_ns, gap))
            self._emit()


class LegacyBurstyGenerator(_LegacyGenerator):
    def __init__(
        self,
        sim,
        nic,
        rate_pps,
        burst_size=32,
        rng: Optional[random.Random] = None,
        **kwargs,
    ):
        super().__init__(sim, nic, **kwargs)
        self.burst_size = burst_size
        self.rng = rng
        burst_span_ns = burst_size * self.min_interval_ns
        period_ns = burst_size * NS_PER_SEC / rate_pps
        self.gap_ns = max(0, int(period_ns - burst_span_ns))

    def _body(self):
        while True:
            for _ in range(self.burst_size):
                yield Sleep(self.min_interval_ns)
                self._emit()
            gap = self.gap_ns
            if self.rng is not None and gap > 0:
                gap = int(gap * self.rng.uniform(0.5, 1.5))
            if gap > 0:
                yield Sleep(gap)


LEGACY = {
    "ConstantRateGenerator": LegacyConstantRateGenerator,
    "PoissonGenerator": LegacyPoissonGenerator,
    "BurstyGenerator": LegacyBurstyGenerator,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_legacy_generators_match_golden(monkeypatch, variant, workload):
    """The coroutine generators and the callback generators are
    interchangeable: same RNG draw order, same injection timestamps,
    same trial results down to the last counter."""
    for name, cls in LEGACY.items():
        monkeypatch.setattr(harness, name, cls)
    result = run_trial(TrialSpec(
        VARIANTS[variant](), 12_000, seed=0, workload=workload, **TIMING
    ))
    golden = GOLDEN["%s|%s|%d|%d" % (variant, workload, 12_000, 0)]
    assert _comparable(result) == golden


# ----------------------------------------------------------------------
# Traced cells: hybrid and cores=4 RSS-isolated trials with a caller-owned
# trace ring, generated from the pure oracle (``gen_golden_trials.py``
# writes both fixtures). Both backends must reproduce the whole trial,
# timeline included, and the raw record stream.
# ----------------------------------------------------------------------


def _load_generator():
    path = Path(__file__).resolve().parents[2] / "scripts" / "gen_golden_trials.py"
    spec = importlib.util.spec_from_file_location("gen_golden_trials", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()
GOLDEN_TRACED = json.loads(GENERATOR.TRACED_OUTPUT.read_text())


def test_traced_fixture_covers_its_cells():
    assert set(GOLDEN_TRACED) == {
        GENERATOR.traced_cell(*row)[0] for row in GENERATOR.TRACED_CELLS
    }


@pytest.mark.parametrize("backend", ["pure", "fast"])
@pytest.mark.parametrize("key", sorted(GOLDEN_TRACED))
def test_traced_trial_matches_golden(key, backend):
    golden = GOLDEN_TRACED[key]
    trial, buffer = GENERATOR.run_traced(golden["cell"], backend=backend)
    assert trial == golden["trial"]
    assert buffer.recorded == golden["recorded"]
    assert GENERATOR.records_digest(buffer) == golden["records_sha256"]
