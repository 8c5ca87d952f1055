"""Traced run (``--trace 1``): one workload split by layer.

Kept apart from the timed runs, and made of separate passes over the
workload's trials, both backends each time:

1. **plain** — untraced, the base of ``harness.trace_overhead``; its
   pure results give the modelled-work ratios (exact counts);
2. **spans** — wraps public entry points from outside and records, per
   trial, the phases build, start, observe, run (warm-up), run (window)
   and result; reads ``sim.stats["fired"]``, the compiled core's
   wall-clock buckets and whether the compiled packet path installed.
   Spans stay in memory and are written out at the end;
3. **profile** — cProfile per backend, self time per module divided by
   offered packets. Its overhead is large, so it is read as a per-packet
   split, never as wall time.

On ``sweep`` the engine (pool boot, fingerprint, cache, parallel
efficiency) and the wire codec are measured too; every other workload
reports those metrics as 0, because none of that code runs there.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List

import measure
from grids import SERIAL_GRIDS, offered_packets
from measure import SIDES
from repro._fastcore import _corec, packetpath
from repro.experiments import ResultCache, Router, run_trial
from repro.experiments import engine
from repro.experiments.wire import pack_trial, unpack_trial
from repro.metrics.latency import LatencyRecorder
from repro.sim.probes import ProbeRegistry
from repro.sim.watchdog import LivelockWatchdog
from repro.trace.timeline import Timeline

#: Source path under ``repro/`` -> layer bucket; the first match wins.
MODULE_BUCKETS = (
    ("hw/cpu.py", "hw.cpu"),
    ("hw/nic.py", "hw.nic"),
    ("hw/link.py", "hw.nic"),
    ("hw/interrupts.py", "hw.interrupts"),
    ("hw/clock.py", "hw.interrupts"),
    ("sim/watchdog.py", "sim.watchdog"),
    ("sim/probes.py", "metrics"),
    ("sim/", "sim.core"),
    ("drivers/", "drivers"),
    ("core/", "drivers"),
    ("kernel/queues.py", "kernel.queues"),
    ("net/", "net"),
    ("workloads/", "workloads"),
    ("metrics/", "metrics"),
    ("apps/", "apps"),
    ("trace/", "trace"),
    ("faults/", "faults"),
    ("experiments/", "experiments"),
)
BUCKETS = tuple(dict.fromkeys(b for _, b in MODULE_BUCKETS)) + ("fastcore", "other")

#: Wrapped entry point -> phase. ``run`` becomes run:warmup/run:window.
PHASES = (
    (Router, "__init__", "build"),
    (Router, "start", "start"),
    (Router, "arm_faults", "observe"),
    (Router, "attach_trace", "observe"),
    (LivelockWatchdog, "start", "observe"),
    (Router, "run_for", "run"),
    (ProbeRegistry, "dump", "result"),
    (LatencyRecorder, "summary_us", "result"),
    (LivelockWatchdog, "verdict", "result"),
    (Timeline, "to_dict", "result"),
    (Router, "teardown", "result"),
)


class Patches:
    """Replace attributes for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, name, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, getattr(owner, name), had))
        setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, had in reversed(self._undo):
            if had:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()


class Spans:
    """Per-trial phase spans, recorded around public entry points.

    Only the outermost wrapped call inside a trial is recorded, so a
    phase never counts time another phase already covers.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.trial = None
        self.router = None
        self.installed = None
        self._depth = 0
        self._runs = 0

    def begin(self, trial) -> None:
        self.trial, self.router, self.installed = trial, None, None
        self._runs = 0

    def end(self) -> None:
        self.trial = None

    def wrap(self, original, phase):
        spans = self

        def wrapper(*args, **kwargs):
            if spans.trial is None or spans._depth:
                return original(*args, **kwargs)
            label = phase
            if phase == "run":
                label = "run:warmup" if spans._runs == 0 else "run:window"
                spans._runs += 1
            elif phase == "build":
                spans.router = args[0]
            spans._depth += 1
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                spans.spans.append(
                    (spans.trial, label, start, time.perf_counter_ns())
                )
                spans._depth -= 1

        return wrapper

    def install(self, patches: Patches) -> None:
        for owner, name, phase in PHASES:
            patches.set(owner, name, self.wrap(getattr(owner, name), phase))
        original = packetpath.install_started

        def install_started(router):
            installed = original(router)
            self.installed = installed
            return installed

        patches.set(packetpath, "install_started", install_started)


def bucket_of(filename: str) -> str:
    """Layer of a profiled Python function's source file; "" when the
    file is not part of ``repro``."""
    if filename.startswith("<drain"):
        return "sim.core"  # the pure drain loop, generated by sim/_drain.py
    index = filename.rfind("/repro/")
    if index < 0:
        return ""
    rel = filename[index + len("/repro/"):]
    for prefix, bucket in MODULE_BUCKETS:
        if rel.startswith(prefix):
            return bucket
    return "other"


def _compiled(name: str) -> bool:
    """A ``_corec`` entry: a FastCore method, or a packet-path binding
    (a bound C function whose owner type has no such attribute, which
    cProfile shows as ``<built-in method NAME>`` with no module)."""
    if "_corec" in name:
        return True
    if name.startswith("<built-in method ") and name.endswith(">"):
        return "." not in name[len("<built-in method "):-1]
    return False


def self_time_by_bucket(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per bucket. Compiled simulator entries go to
    ``fastcore``; other builtins and standard-library functions are
    charged to the ``repro`` module that called them."""
    out = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _line, name), (_cc, _nc, tt, _ct, callers) in (
        pstats.Stats(profile).stats.items()
    ):
        bucket = bucket_of(filename)
        if bucket:
            out[bucket] += tt
        elif filename == "~" and _compiled(name):
            out["fastcore"] += tt
        else:
            for (caller_file, _l, _n), edge in callers.items():
                out[bucket_of(caller_file) or "other"] += edge[2]
    return out


class Layers:
    """The passes of one traced run over ``items`` (name, spec) pairs."""

    def __init__(self, items, oracle: measure.Oracle) -> None:
        self.items = items
        self.oracle = oracle
        self.offered = {name: offered_packets(spec) for name, spec in items}
        self.specs = {}
        for name, spec in items:
            oracle.expect(name, spec)
            for side in SIDES:
                self.specs[(name, side)] = spec.replace(backend=side)
        self.attempted = 0
        self.failed = 0

    def _run(self, name, side, profiler=None):
        """One checked trial: (result or None, wall seconds). Only the
        ``run_trial`` call is timed and profiled, never the check."""
        self.attempted += 1
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = run_trial(self.specs[(name, side)])
        except Exception as exc:  # a raising trial is a failed operation
            self.oracle.failures.append("%s/%s raised %r" % (name, side, exc))
            result = None
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.perf_counter() - start
        if result is not None and not self.oracle.check(name, side, result):
            result = None
        if result is None:
            self.failed += 1
        return result, elapsed

    def _pass(self, index, each):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for name, _ in self.items:
            for side in order:
                each(name, side)

    def plain(self) -> dict:
        """One untraced pass: wall per backend and summed counters."""
        wall = dict.fromkeys(SIDES, 0.0)
        counters: Dict[str, int] = {}

        def each(name, side):
            result, elapsed = self._run(name, side)
            wall[side] += elapsed
            if result is not None and side == "pure":
                for key, value in result.counters.items():
                    counters[key] = counters.get(key, 0) + value

        self._pass(0, each)
        return {"wall_s": wall, "counters": counters}

    def spans(self, budget_s: float) -> dict:
        """Spans passes until ``budget_s`` is used (at least one)."""
        spans = Spans()
        trials = []
        start = time.perf_counter()
        passes = 0

        def each(name, side):
            before = _corec.profile_snapshot()
            spans.begin("%s/%s/%d" % (name, side, passes))
            try:
                result, elapsed = self._run(name, side)
            finally:
                spans.end()
            after = _corec.profile_snapshot()
            trials.append({
                "trial": "%s/%s/%d" % (name, side, passes),
                "backend": side,
                "wall_s": elapsed,
                "offered": self.offered[name],
                "fired": (
                    spans.router.sim.stats["fired"] if spans.router else 0
                ),
                "installed": spans.installed,
                "run_s": after["run_s"] - before["run_s"],
                "compiled_s": after["compiled_s"] - before["compiled_s"],
                "pycalls": after["python_callback_calls"]
                - before["python_callback_calls"],
                "ok": result is not None,
            })

        _corec.profile_buckets(True)
        try:
            with Patches() as patches:
                spans.install(patches)
                while passes == 0 or time.perf_counter() - start < budget_s:
                    self._pass(passes, each)
                    passes += 1
        finally:
            _corec.profile_buckets(False)
        return {"passes": passes, "trials": trials, "spans": spans.spans}

    def profile(self) -> dict:
        """One pass under cProfile; self seconds per bucket per backend."""
        profiles = {side: cProfile.Profile() for side in SIDES}
        self._pass(0, lambda name, side: self._run(name, side, profiles[side]))
        return {side: self_time_by_bucket(profiles[side]) for side in SIDES}


def span_metrics(plain: dict, traced: dict, profiled: dict, offered: float) -> dict:
    trials = traced["trials"]
    per_trial: Dict[str, Dict[str, int]] = {}
    for trial, label, start, end in traced["spans"]:
        phases = per_trial.setdefault(trial, {})
        phases[label] = phases.get(label, 0) + (end - start)

    def mean_us(*labels):
        total = sum(
            per_trial.get(t["trial"], {}).get(label, 0)
            for t in trials
            for label in labels
        )
        return total / len(trials) / 1e3

    values = {
        "experiments.build_us": mean_us("build"),
        "experiments.start_us": mean_us("start"),
        "experiments.observe_us": mean_us("observe"),
        "experiments.result_us": mean_us("result"),
    }
    for side in SIDES:
        mine = [t for t in trials if t["backend"] == side]
        run_ns = sum(
            per_trial.get(t["trial"], {}).get(label, 0)
            for t in mine
            for label in ("run:warmup", "run:window")
        )
        wall_ns = sum(t["wall_s"] for t in mine) * 1e9
        fired = sum(t["fired"] for t in mine)
        values[side + ".sim.run_share"] = run_ns / wall_ns
        values[side + ".sim.ns_per_event"] = run_ns / fired
        for bucket, seconds in profiled[side].items():
            if side == "pure" and bucket == "fastcore":
                continue
            values["%s.%s.ns_per_pkt" % (side, bucket)] = seconds * 1e9 / offered
    pure = [t for t in trials if t["backend"] == "pure"]
    fast = [t for t in trials if t["backend"] == "fast"]
    values["sim.events_per_pkt"] = sum(t["fired"] for t in pure) / sum(
        t["offered"] for t in pure
    )
    run_s = sum(t["run_s"] for t in fast)
    values["fastcore.compiled_share"] = (
        sum(t["compiled_s"] for t in fast) / run_s if run_s else 0.0
    )
    values["fastcore.pycalls_per_pkt"] = sum(t["pycalls"] for t in fast) / sum(
        t["offered"] for t in fast
    )
    values["fastcore.installed_share"] = sum(
        bool(t["installed"]) for t in fast
    ) / len(fast)

    counters = plain["counters"]
    accepted = counters.get("nic.in0.rx_accepted", 0)
    overflow = counters.get("nic.in0.rx_overflow_drops", 0)
    dropped = sum(
        value
        for key, value in counters.items()
        if key.startswith("queue.") and key.endswith(".dropped")
    )
    values["hw.nic.overflow_frac"] = overflow / max(1, accepted + overflow)
    values["kernel.queues.drop_frac"] = dropped / max(1, accepted)
    values["drivers.useful_ratio"] = counters.get("router.delivered", 0) / max(
        1, accepted
    )
    per_pass = sum(t["wall_s"] for t in trials) / traced["passes"]
    values["harness.trace_overhead"] = per_pass / sum(plain["wall_s"].values())
    return values


class EngineProbe:
    """Per-call wall time of the engine's fingerprint and cache calls,
    wrapped where ``run_trials`` looks them up."""

    def __init__(self) -> None:
        self.calls: Dict[str, List[float]] = {"fingerprint": [], "get": [], "put": []}

    def timed(self, original, key):
        calls = self.calls[key]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                calls.append(time.perf_counter() - start)

        return wrapper

    def install(self, patches: Patches) -> None:
        patches.set(engine, "trial_fingerprint",
                    self.timed(engine.trial_fingerprint, "fingerprint"))
        patches.set(ResultCache, "get", self.timed(ResultCache.get, "get"))
        patches.set(ResultCache, "put", self.timed(ResultCache.put, "put"))

    def mean_us(self, key: str) -> float:
        calls = self.calls[key]
        return sum(calls) / len(calls) * 1e6 if calls else 0.0


def engine_metrics(sweep, oracle, items, jobs: int, serial_fast_s: float,
                   pool_boot_s: float) -> dict:
    """Engine and wire metrics from sweeps of ``figure_6_3``."""
    plain = measure.timed_sweeps(sweep, oracle, items, budget_s=0.0, min_sweeps=3)
    probe = EngineProbe()
    cache = sweep.fresh_cache()
    try:
        with Patches() as patches:
            probe.install(patches)
            _, cold = sweep.run(cache)
            _, warm = sweep.run(cache)
        hits, misses = cache.hits, cache.misses
    finally:
        sweep.drop(cache)
    attempted, failed = plain["attempted"], plain["failed"]
    for pairs in (cold, warm):
        tried, bad = measure.check_sweep(oracle, items, pairs)
        attempted += tried
        failed += bad
    results = [result for _, result in cold]
    pack_s = unpack_s = 0.0
    size = 0
    rounds = 20
    for _ in range(rounds):
        for result in results:
            start = time.perf_counter()
            blob = pack_trial(result)
            middle = time.perf_counter()
            unpack_trial(blob)
            pack_s += middle - start
            unpack_s += time.perf_counter() - middle
            size += len(blob)
    count = rounds * len(results)
    cold_s = statistics.median(plain["cold_s"])
    values = {
        "engine.pool_boot_s": pool_boot_s,
        "engine.parallel_eff": serial_fast_s / (max(1, jobs) * cold_s),
        "engine.fingerprint_us": probe.mean_us("fingerprint"),
        "engine.cache_put_us": probe.mean_us("put"),
        "engine.cache_get_us": probe.mean_us("get"),
        "engine.cache_hits": float(hits),
        "engine.cache_misses": float(misses),
        "engine.warm_sweep_s": statistics.median(plain["warm_s"]),
        "wire.pack_us": pack_s / count * 1e6,
        "wire.unpack_us": unpack_s / count * 1e6,
        "wire.bytes": size / count,
    }
    return values, attempted, failed


ENGINE_METRICS = (
    "engine.pool_boot_s", "engine.parallel_eff", "engine.fingerprint_us",
    "engine.cache_put_us", "engine.cache_get_us", "engine.cache_hits",
    "engine.cache_misses", "engine.warm_sweep_s", "wire.pack_us",
    "wire.unpack_us", "wire.bytes",
)


def write_spans(path: Path, traced: dict) -> None:
    """The spans pass, one record per span; every span's parent is its
    trial, and the trial ids are shared with ``trials``."""
    origin = min((start for _, _, start, _ in traced["spans"]), default=0)
    doc = {
        "trials": traced["trials"],
        "spans": [
            {"trial": trial, "phase": label, "parent": "trial",
             "start_us": (start - origin) / 1e3, "dur_us": (end - start) / 1e3}
            for trial, label, start, end in traced["spans"]
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def traced_run(workload: str, seed: int, seconds: float, pins: dict,
               jobs: int, out: Path):
    """Per-layer values of one workload, plus attempted/failed/failures."""
    oracle = measure.Oracle(pins, seed)
    info: dict = {}
    sweep = None
    engine_values = dict.fromkeys(ENGINE_METRICS, 0.0)
    attempted = failed = 0
    try:
        if workload == "sweep":
            from boot import boot_pool, stop_pool

            sweep = measure.Sweep(seed, jobs, out / "sweep")
            start = time.perf_counter()
            boot_pool(jobs)
            pool_boot_s = time.perf_counter() - start
            primer = sweep.fresh_cache()
            _, pairs = sweep.run(primer)
            sweep.drop(primer)
            items = measure.sweep_items(pairs)
        else:
            items = SERIAL_GRIDS[workload](seed)
            for side in SIDES:  # untimed first-call set-up, as in timed runs
                run_trial(items[0][1].replace(backend=side))
        layers = Layers(items, oracle)
        started = time.perf_counter()
        plain = layers.plain()
        if sweep is not None:
            tried, bad = measure.check_sweep(oracle, items, pairs)
            attempted += tried
            failed += bad
            engine_values, tried, bad = engine_metrics(
                sweep, oracle, items, jobs, plain["wall_s"]["fast"], pool_boot_s
            )
            attempted += tried
            failed += bad
        left = seconds - (time.perf_counter() - started)
        traced = layers.spans(budget_s=max(0.0, 0.5 * left))
        profiled = layers.profile()
    finally:
        if sweep is not None:
            stop_pool()
            shutil.rmtree(out / "sweep", ignore_errors=True)
    offered = sum(layers.offered.values())
    values = span_metrics(plain, traced, profiled, offered)
    values.update(engine_values)
    spans_path = out / "spans" / ("%s-seed%d.json" % (workload, seed))
    write_spans(spans_path, traced)
    info.update(trials=len(items), span_passes=traced["passes"],
                spans=str(spans_path))
    return (values, attempted + layers.attempted, failed + layers.failed,
            oracle.failures, info)
