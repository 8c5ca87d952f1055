"""Cold set-up, timed in a fresh interpreter.

``python3 perfbench/boot.py [--pool JOBS]`` imports ``repro``, loads the
compiled core, builds and starts one router per backend and, with
``--pool``, boots the sweep engine's warm worker pool; it prints the
elapsed seconds as JSON. Interpreter start-up itself is not counted.
Run it with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def _worker_pid(hold_s: float) -> int:
    time.sleep(hold_s)
    return os.getpid()


def boot_pool(jobs: int) -> None:
    """Start the engine's warm pool and wait until every worker has run
    its initializer (a worker takes tasks only after that)."""
    if jobs <= 1:
        return  # the engine runs jobs=1 in-process, with no pool
    from repro.experiments.engine import parallel_map

    seen = set()
    for _ in range(200):
        seen.update(parallel_map(_worker_pid, [0.02] * jobs, jobs=jobs))
        if len(seen) >= jobs:
            return
    raise RuntimeError("warm pool never showed %d workers" % jobs)


def stop_pool() -> None:
    """Stop the warm pool and wait for its workers, then stop and wait
    for the resource tracker that the spawn start method launched with
    them (left alone, it outlives the benchmark process)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.experiments.engine import shutdown_warm_pool

    shutdown_warm_pool(wait=True)
    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def cold_setup(pool_jobs: int) -> dict:
    start = time.perf_counter()
    import repro._fastcore  # noqa: F401  (loads _corec)
    from repro.core import variants
    from repro.experiments import Router
    from repro.sim.backend import make_simulator

    for backend in ("pure", "fast"):
        Router(variants.unmodified(), sim=make_simulator(backend)).start()
    boot_pool(pool_jobs)
    elapsed = time.perf_counter() - start
    stop_pool()
    return {"setup_s": elapsed}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=0, metavar="JOBS")
    print(json.dumps(cold_setup(parser.parse_args().pool)))
