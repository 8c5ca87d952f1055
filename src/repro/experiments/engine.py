"""Sweep engine: parallel, cached execution of independent trials.

Every figure in the reproduction is a sweep of independent measurements —
the paper's methodology (§6.1) builds one fresh router per operating
point — so trials are embarrassingly parallel, and because each trial is
deterministic given ``(config, rate, seed, workload, ...)`` its result is
perfectly cacheable. This module exploits both:

* :func:`run_trials` fans trial specs out across a persistent pool of
  **warm workers** with order-preserving results: the returned list
  matches the spec order and is bit-identical to a serial run. The pool
  outlives individual sweeps (one figure's series, or several figures in
  one process, reuse the same workers), each worker's initializer
  pre-imports the simulation stack and runs one throwaway micro-trial so
  the first real trial pays no import cost, specs are dispatched in
  cost-balanced **chunks** (see
  :func:`repro.experiments.harness.trial_cost_estimate`) to amortize
  submission overhead without letting one slow trial straggle, and
  results return as compact :mod:`~repro.experiments.wire` blobs instead
  of pickled dataclasses;
* a content-addressed on-disk cache keyed by a SHA-256 fingerprint of
  the full :class:`~repro.kernel.config.KernelConfig` (including the
  cost model), the trial kwargs, and :data:`CACHE_VERSION`. Bump the
  version tag whenever simulation semantics change — every old entry
  then misses and the cache re-fills. Entries live under
  ``$REPRO_CACHE_DIR`` (or ``$XDG_CACHE_HOME``/``~/.cache`` +
  ``repro-livelock/``) as one JSON file per trial;
* :func:`parallel_map` is the generic order-preserving fan-out for
  experiments whose unit of work is not a plain trial (e.g. the
  end-host extension); it shares the warm pool.

Workers are started with the ``spawn`` context by default (override via
``$REPRO_MP_START``): fork is unsafe in threaded parents, stops being
the Linux default in newer CPython, and the warm pool exists precisely
to amortize spawn's higher startup cost to zero.

``run_sweep`` here is the real implementation behind
:func:`repro.experiments.harness.run_sweep`; the harness delegates so
existing callers pick up ``jobs=``/``cache=`` without code changes.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..kernel.config import KernelConfig
from .spec import TrialSpec, spec_tuple

#: Bump whenever trial semantics, the cost model defaults, or the
#: TrialResult schema change: the fingerprint embeds this tag, so a bump
#: invalidates every existing cache entry without touching the files.
#: "2": TrialResult gained watchdog/faults fields; trials accept
#: fault_plan/watchdog/sanitize.
#: "3": TrialResult gained the timeline field; trials accept
#: trace/trace_capacity; specs may be TrialSpec instances.
#: "4": TrialResult gained the slo field; trials accept
#: attack_rate_pps; adversarial workloads and mitigation configs exist.
CACHE_VERSION = "4"

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the multiprocessing start method for
#: the warm worker pool ("spawn" default; "fork"/"forkserver" accepted).
MP_START_ENV = "REPRO_MP_START"

#: Target number of dispatch chunks per worker. >1 keeps workers busy
#: when the cost estimate is off (a finished worker picks up another
#: chunk); higher values shrink chunks toward per-spec submission and
#: give the amortization back.
CHUNKS_PER_WORKER = 2

#: The engine's internal trial-spec form: (kernel config, input rate,
#: run_trial keyword args). Public entry points also accept
#: :class:`~repro.experiments.spec.TrialSpec` instances and normalize
#: them to this tuple via :func:`~repro.experiments.spec.spec_tuple`.
SpecTuple = Tuple[KernelConfig, float, Dict[str, Any]]


@dataclass
class TrialFailure:
    """Record of a trial that could not produce a result.

    Non-strict sweeps degrade gracefully: a crashed worker, a hung
    trial, or a trial that raised ends up as one of these in the result
    list (position-for-position with its spec) instead of aborting the
    whole sweep. ``kind`` is ``"timeout"`` (exceeded the per-trial
    wall-clock limit), ``"crash"`` (the worker process died), or
    ``"error"`` (the trial raised — deterministic, never retried).
    """

    variant: str
    target_rate_pps: float
    kind: str
    error: str
    attempts: int

    @property
    def failed(self) -> bool:
        return True


class SweepError(RuntimeError):
    """A strict sweep aborted on an unrecoverable trial failure."""

    def __init__(self, failure: TrialFailure) -> None:
        super().__init__(
            "trial %s @ %.0f pps failed (%s after %d attempt(s)): %s"
            % (
                failure.variant,
                failure.target_rate_pps,
                failure.kind,
                failure.attempts,
                failure.error,
            )
        )
        self.failure = failure


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_CACHE_DIR`` wins, then
    ``$XDG_CACHE_HOME/repro-livelock``, then ``~/.cache/repro-livelock``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-livelock"


def trial_fingerprint(
    config, rate_pps: Optional[float] = None, kwargs: Optional[Dict[str, Any]] = None
) -> str:
    """Content hash addressing one trial's cached result.

    Covers everything the result depends on: the complete config
    (``asdict`` recurses into the cost model), the rate, every trial
    keyword, and the code/schema version tag. ``sort_keys`` makes the
    JSON canonical; ``default=repr`` keeps hashing total for exotic
    values (same value → same repr → same key).

    Accepts either the legacy ``(config, rate_pps, kwargs)`` arguments
    or a single :class:`~repro.experiments.spec.TrialSpec` — a spec
    fingerprints identically to the kwargs call it stands for.
    """
    if isinstance(config, TrialSpec):
        if rate_pps is not None or kwargs is not None:
            raise TypeError(
                "trial_fingerprint(spec) takes no further arguments"
            )
        config, rate_pps, kwargs = config.as_tuple()
    if rate_pps is None:
        raise TypeError("trial_fingerprint(config, rate_pps, kwargs)")
    config_payload = asdict(config)
    # Config fields added after CACHE_VERSION "4" are omitted at their
    # default value, so every pre-existing fingerprint (which never saw
    # the field) is preserved without a version bump.
    if not config_payload.get("use_hybrid"):
        config_payload.pop("use_hybrid", None)
    payload = {
        "version": CACHE_VERSION,
        "config": config_payload,
        "rate_pps": rate_pps,
        "kwargs": _canonical_kwargs(kwargs if kwargs is not None else {}),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canonical_kwargs(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Kwargs with the fault plan in canonical dict form, so a canned-plan
    name and the equivalent FaultPlan object address the same entry.

    The ``backend`` kwarg is stripped entirely: the pure and fast cores
    are bit-identical by contract (enforced by the backend parity
    tests), so a cached result is valid for
    either and the same trial must hash to the same entry under both —
    ``TrialResult.backend`` records which core actually computed it.
    """
    plan = kwargs.get("fault_plan")
    machine = kwargs.get("machine")
    if plan is None and machine is None and "backend" not in kwargs:
        return kwargs
    kwargs = dict(kwargs)
    kwargs.pop("backend", None)
    if plan is not None:
        from ..faults import canned_plan

        if isinstance(plan, str):
            plan = canned_plan(plan)
        kwargs["fault_plan"] = plan.to_dict()
    if machine is not None and not isinstance(machine, dict):
        # MachineSpec → canonical dict, so the object and its dict form
        # address the same cache entry.
        kwargs["machine"] = machine.to_dict()
    return kwargs


class ResultCache:
    """Content-addressed store of TrialResults, one JSON file per trial.

    Malformed, truncated, or version-skewed entries read as misses, so a
    cache directory can always be deleted or shared safely. Writes are
    atomic (temp file + rename) so parallel workers never expose a
    half-written entry.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise NotADirectoryError(
                "cache path %s exists and is not a directory" % self.root
            ) from None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path(self, key: str) -> Path:
        return self.root / (key + ".json")

    def get(self, key: str):
        from .results import trial_from_dict

        path = self.path(key)
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            with handle:
                entry = json.load(handle)
            if entry.get("version") != CACHE_VERSION:
                raise ValueError("cache version skew")
            result = trial_from_dict(entry["result"])
        except Exception:
            # Corrupt, truncated, or stale-schema entry: quarantine it so
            # it cannot shadow the recomputed result (the recompute's
            # atomic put will replace it anyway, but a crash between miss
            # and put must not leave the bad file behind).
            self.misses += 1
            self.evictions += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result) -> None:
        from .results import trial_to_dict

        entry = {"version": CACHE_VERSION, "result": trial_to_dict(result)}
        blob = json.dumps(entry, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp_name, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _resolve_cache(cache, cache_dir) -> Optional[ResultCache]:
    """``cache`` may be a ResultCache, True (open the default/-given dir),
    or False/None (caching off)."""
    if isinstance(cache, ResultCache):
        return cache
    if cache:
        return ResultCache(Path(cache_dir) if cache_dir is not None else None)
    return None


def _run_spec(spec: SpecTuple):
    """Top-level worker so ProcessPoolExecutor can pickle it."""
    from .harness import _run_trial_impl

    config, rate_pps, kwargs = spec
    chaos = kwargs.get("_chaos")
    if chaos is not None:
        kwargs = {k: v for k, v in kwargs.items() if k != "_chaos"}
        _apply_chaos(chaos)
    return _run_trial_impl(config, rate_pps, **kwargs)


def _apply_chaos(chaos: Dict[str, Any]) -> None:
    """Engine-level failure injection, for testing the engine itself
    (the simulator has :mod:`repro.faults`; the worker pool needs its
    own seam, reached via a reserved ``_chaos`` trial kwarg).

    ``crash_flag``: hard-kill the worker unless the flag file exists —
    the file is created first, so exactly the first attempt dies and a
    retry succeeds. ``hang_s``: sleep that long before running (trips
    the per-trial timeout). ``raise``: raise a deterministic error.
    """
    flag = chaos.get("crash_flag")
    if flag is not None and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    hang = chaos.get("hang_s")
    if hang:
        time.sleep(hang)
    if chaos.get("raise"):
        raise RuntimeError("chaos: injected trial error")


# ----------------------------------------------------------------------
# Warm worker pool
# ----------------------------------------------------------------------

_WARM_POOL: Optional[ProcessPoolExecutor] = None
_WARM_WORKERS: int = 0


def _mp_context():
    return multiprocessing.get_context(os.environ.get(MP_START_ENV, "spawn"))


def _warm_init() -> None:
    """Worker initializer: pre-import the simulation stack and run one
    throwaway micro-trial, so the worker's first real trial pays neither
    import cost nor first-call setup (lazy imports, topology template
    construction, bytecode warmup). Best-effort: a failure here just
    means a cold first trial."""
    try:
        from ..core import variants
        from .harness import _run_trial_impl

        _run_trial_impl(
            variants.unmodified(), 0.0, duration_s=0.001, warmup_s=0.0
        )
    except Exception:  # pragma: no cover - warmup is advisory
        pass


def warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent worker pool, created on first use.

    The pool is sized by the *requested* job count and survives across
    sweeps — that is the point: with spawn workers, pool boot plus
    per-worker interpreter/import startup costs ~1 s, which the old
    pool-per-sweep design paid for every figure series. Asking for a
    different size tears the old pool down first (callers in one run
    overwhelmingly use one ``jobs`` value).
    """
    global _WARM_POOL, _WARM_WORKERS
    workers = max(1, jobs)
    if _WARM_POOL is not None and _WARM_WORKERS != workers:
        shutdown_warm_pool()
    if _WARM_POOL is None:
        _WARM_POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_warm_init,
        )
        _WARM_WORKERS = workers
    return _WARM_POOL


def _discard_warm_pool() -> None:
    """Drop a pool that can no longer be trusted (crashed or hung
    worker): terminate its processes and forget it, so the next round
    boots a fresh one."""
    global _WARM_POOL, _WARM_WORKERS
    pool = _WARM_POOL
    _WARM_POOL = None
    _WARM_WORKERS = 0
    if pool is not None:
        _abandon_executor(pool)


def shutdown_warm_pool(wait: bool = True) -> None:
    """Cleanly stop the warm pool (tests, interpreter exit)."""
    global _WARM_POOL, _WARM_WORKERS
    pool = _WARM_POOL
    _WARM_POOL = None
    _WARM_WORKERS = 0
    if pool is not None:
        pool.shutdown(wait=wait)


atexit.register(shutdown_warm_pool, wait=False)


def parallel_map(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
) -> List[Any]:
    """Order-preserving map, fanned across the warm worker pool.

    ``jobs`` of None/0/1 runs in-process (no executor overhead); ``fn``
    and every payload must be picklable when ``jobs > 1``. Results come
    back in payload order regardless of completion order, which is what
    makes parallel sweeps reproduce serial output exactly.
    """
    payloads = list(payloads)
    if jobs is None or jobs <= 1 or len(payloads) <= 1:
        return [fn(payload) for payload in payloads]
    pool = warm_pool(jobs)
    try:
        return list(pool.map(fn, payloads))
    except BrokenProcessPool:
        _discard_warm_pool()
        raise


def _spec_failure(spec, kind: str, error: str, attempts: int):
    from ..core.variants import describe

    config, rate_pps, _ = spec_tuple(spec)
    return TrialFailure(
        variant=describe(config),
        target_rate_pps=rate_pps,
        kind=kind,
        error=error,
        attempts=attempts,
    )


def _abandon_executor(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting: a hung or crashed worker must
    not block the sweep's forward progress."""
    for process in list(getattr(executor, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - pre-3.9 signature
        executor.shutdown(wait=False)


def _run_chunk(specs: List[SpecTuple]) -> List[Tuple[str, Any, Optional[str]]]:
    """Top-level chunk worker: run each spec in order, return tagged,
    wire-packed outcomes.

    One worker round-trip carries many trials (submission overhead is
    amortized), and a trial that raises comes back as data — tagged
    ``("E", pickled_exception, repr)`` — instead of poisoning its
    chunk-mates' finished results. Successes travel as
    ``("R", wire_blob, None)``.
    """
    from .wire import pack_trial

    out: List[Tuple[str, Any, Optional[str]]] = []
    for spec in specs:
        try:
            result = _run_spec(spec)
        except Exception as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            out.append(("E", blob, repr(exc)))
        else:
            out.append(("R", pack_trial(result), None))
    return out


def _decode_outcome(tagged):
    """(TrialResult, None) or (None, exception) from a worker tag."""
    from .wire import unpack_trial

    tag, blob, note = tagged
    if tag == "R":
        return unpack_trial(blob), None
    exc = None
    if blob is not None:
        try:
            exc = pickle.loads(blob)
        except Exception:
            exc = None
    if exc is None:
        # The original exception would not round-trip; re-raise its face.
        exc = RuntimeError(note)
    return None, exc


def _build_chunks(
    indexed_specs: List[Tuple[int, SpecTuple]],
    workers: int,
    timeout_s: Optional[float],
) -> List[List[Tuple[int, SpecTuple]]]:
    """Cut the spec list into contiguous, cost-balanced chunks.

    With a per-trial ``timeout_s`` every chunk is a single spec, so
    ``future.result(timeout=...)`` keeps its exact per-trial meaning and
    a timeout is charged to precisely the trial that hung.
    """
    if timeout_s is not None:
        return [[pair] for pair in indexed_specs]
    from .harness import trial_cost_estimate

    target = max(1, min(len(indexed_specs), workers * CHUNKS_PER_WORKER))
    if target >= len(indexed_specs):
        return [[pair] for pair in indexed_specs]
    costs = [trial_cost_estimate(spec) for _, spec in indexed_specs]
    budget = sum(costs) / target
    chunks: List[List[Tuple[int, SpecTuple]]] = []
    current: List[Tuple[int, SpecTuple]] = []
    acc = 0.0
    for pair, cost in zip(indexed_specs, costs):
        current.append(pair)
        acc += cost
        if acc >= budget and len(chunks) < target - 1:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks


def _cancel_unstarted(submitted, start: int) -> None:
    """Best-effort cancel of chunks not yet picked up by a worker, so a
    strict abort does not leave queued work running in the warm pool."""
    for _, future in submitted[start:]:
        future.cancel()


def _run_resilient(
    indexed_specs: List[Tuple[int, SpecTuple]],
    jobs: Optional[int],
    timeout_s: Optional[float],
    retries: int,
    retry_backoff_s: float,
    strict: bool,
) -> Dict[int, Any]:
    """Run specs across the warm pool, surviving crashes and hangs.

    Returns {index: TrialResult | TrialFailure}. A worker crash poisons
    the whole pool and a hung worker never frees its slot, so recovery
    is pool-granular: salvage every chunk that already finished, charge
    one failed attempt to each spec of the chunk being waited on,
    discard the pool, and resubmit the remainder to a fresh one (after
    a linear backoff). Retry rounds use single-spec chunks so a repeat
    failure is attributed to exactly the spec that caused it. Trials
    that *raise* are deterministic and are never retried.
    """
    max_attempts = 1 + max(0, retries)
    outcomes: Dict[int, Any] = {}
    attempts = {index: 0 for index, _ in indexed_specs}
    pending = list(indexed_specs)
    round_number = 0
    while pending:
        if round_number > 0 and retry_backoff_s > 0:
            time.sleep(retry_backoff_s * round_number)
        workers = max(1, jobs or 1)
        if round_number == 0:
            chunks = _build_chunks(pending, workers, timeout_s)
        else:
            chunks = [[pair] for pair in pending]
        round_number += 1
        executor = warm_pool(workers)
        submitted = [
            (chunk, executor.submit(_run_chunk, [spec for _, spec in chunk]))
            for chunk in chunks
        ]
        pending = []
        for position, (chunk, future) in enumerate(submitted):
            try:
                payload = future.result(timeout=timeout_s)
            except FutureTimeoutError:
                kind = "timeout"
                error = "exceeded the %.1fs per-trial wall-clock limit" % (
                    timeout_s or 0.0
                )
            except BrokenProcessPool as exc:
                kind = "crash"
                error = "worker process died: %r" % exc
            except Exception as exc:
                # Submission-layer failure (e.g. an unpicklable spec):
                # deterministic, so a retry would fail identically.
                for index, spec in chunk:
                    attempts[index] += 1
                    if strict:
                        _cancel_unstarted(submitted, position + 1)
                        raise
                    outcomes[index] = _spec_failure(
                        spec, "error", repr(exc), attempts[index]
                    )
                continue
            else:
                for (index, spec), tagged in zip(chunk, payload):
                    attempts[index] += 1
                    result, exc = _decode_outcome(tagged)
                    if exc is None:
                        outcomes[index] = result
                        continue
                    # The trial itself raised. It is deterministic, so a
                    # retry would fail identically — record (or raise)
                    # now. The pool is healthy; keep it warm.
                    if strict:
                        _cancel_unstarted(submitted, position + 1)
                        raise exc
                    outcomes[index] = _spec_failure(
                        spec, "error", repr(exc), attempts[index]
                    )
                continue
            # Timeout or crash: the pool is no longer trustworthy.
            for index, spec in chunk:
                attempts[index] += 1
                if attempts[index] >= max_attempts:
                    failure = _spec_failure(spec, kind, error, attempts[index])
                    if strict:
                        _discard_warm_pool()
                        raise SweepError(failure)
                    outcomes[index] = failure
                else:
                    pending.append((index, spec))
            # Salvage completed chunks; everything else re-runs in a
            # fresh pool with no attempt charged (it was not at fault).
            for other_chunk, other_future in submitted[position + 1 :]:
                decoded = None
                if other_future.done():
                    try:
                        decoded = [
                            _decode_outcome(t) for t in other_future.result()
                        ]
                    except Exception:
                        decoded = None
                if decoded is None:
                    pending.extend(other_chunk)
                    continue
                for (index, spec), (result, exc) in zip(other_chunk, decoded):
                    attempts[index] += 1
                    if exc is None:
                        outcomes[index] = result
                    elif strict:
                        _discard_warm_pool()
                        raise exc
                    else:
                        outcomes[index] = _spec_failure(
                            spec, "error", repr(exc), attempts[index]
                        )
            _discard_warm_pool()
            break
        # A clean round leaves the pool warm for the next sweep.
    return outcomes


def run_trials(
    specs: Sequence,
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    retry_backoff_s: float = 0.25,
    strict: bool = True,
) -> List:
    """Run every trial spec, in parallel and/or from cache.

    Results are returned in spec order and are field-for-field identical
    whether they were computed serially, across ``jobs`` processes, or
    read back from the cache. Specs carrying a pre-built ``router``
    cannot cross a process boundary or be fingerprinted, so they always
    run serially and uncached.

    Resilience: ``timeout_s`` bounds each trial's wall-clock time (it
    forces pool execution, since an in-process trial cannot be
    interrupted); crashed or hung workers are retried up to ``retries``
    extra times with a linear ``retry_backoff_s`` delay. With
    ``strict=True`` (the library default) the first unrecoverable
    failure raises (:class:`SweepError`, or the trial's own exception);
    ``strict=False`` degrades gracefully, leaving a
    :class:`TrialFailure` in the result list at the failed spec's
    position.

    Specs may be :class:`~repro.experiments.spec.TrialSpec` instances,
    legacy ``(config, rate_pps, kwargs)`` tuples, or a mix; a spec and
    the tuple it stands for hit the same cache entry.
    """
    specs = [spec_tuple(spec) for spec in specs]
    store = _resolve_cache(cache, cache_dir)

    results: List[Any] = [None] * len(specs)
    pending: List[int] = []
    keys: Dict[int, str] = {}
    for index, (config, rate_pps, kwargs) in enumerate(specs):
        trace_val = kwargs.get("trace")
        if ("router" in kwargs and kwargs["router"] is not None) or (
            trace_val is not None and not isinstance(trace_val, bool)
        ):
            # Pre-built routers and caller-owned TraceBuffers cannot
            # cross a process boundary or be fingerprinted: run
            # in-process (uncached, no timeout enforcement).
            try:
                results[index] = _run_spec(specs[index])
            except Exception as exc:
                if strict:
                    raise
                results[index] = _spec_failure(
                    specs[index], "error", repr(exc), 1
                )
            continue
        if store is not None:
            key = trial_fingerprint(config, rate_pps, kwargs)
            keys[index] = key
            cached = store.get(key)
            if cached is not None:
                results[index] = cached
                continue
        pending.append(index)

    if timeout_s is None and (jobs is None or jobs <= 1):
        # Serial fast path: no pool, no pickling.
        for index in pending:
            try:
                results[index] = _run_spec(specs[index])
            except Exception as exc:
                if strict:
                    raise
                results[index] = _spec_failure(
                    specs[index], "error", repr(exc), 1
                )
            else:
                if store is not None:
                    store.put(keys[index], results[index])
        return results

    outcomes = _run_resilient(
        [(index, specs[index]) for index in pending],
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
        strict=strict,
    )
    for index, result in outcomes.items():
        results[index] = result
        if store is not None and not isinstance(result, TrialFailure):
            store.put(keys[index], result)
    return results


def run_sweep(
    config: KernelConfig,
    rates: Sequence[float],
    jobs: Optional[int] = None,
    cache=False,
    cache_dir=None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    retry_backoff_s: float = 0.25,
    strict: bool = True,
    **trial_kwargs,
) -> List:
    """One trial per input rate (fresh router each time), engine-backed.

    Raw trial keywords are deprecated in favour of constructing
    :class:`~repro.experiments.spec.TrialSpec` instances and calling
    :func:`run_trials` — same results, same cache fingerprints.
    """
    if trial_kwargs:
        warnings.warn(
            "run_sweep(config, rates, **trial_kwargs) with raw trial "
            "keywords is deprecated; build TrialSpec instances "
            "(TrialSpec.from_kwargs(config, rate, **kw)) and call "
            "run_trials(specs) instead",
            DeprecationWarning,
            stacklevel=2,
        )
    specs: List[Any] = []
    for rate in rates:
        kwargs = dict(trial_kwargs)
        try:
            # The typed form validates eagerly; fingerprints match the
            # tuple form exactly (from_kwargs keeps the explicit set).
            specs.append(TrialSpec.from_kwargs(config, rate, **kwargs))
        except TypeError:
            # Engine-reserved kwargs (router, _chaos) are not spec
            # fields; fall through to the raw tuple form.
            specs.append((config, rate, kwargs))
    return run_trials(
        specs,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
        timeout_s=timeout_s,
        retries=retries,
        retry_backoff_s=retry_backoff_s,
        strict=strict,
    )
