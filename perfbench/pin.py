#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``: pure-oracle checksums of every
trial the benchmark runs at the default seed.

    python3 scripts/build_fastcore.py && python3 perfbench/pin.py

Re-pin only in a change that means to alter simulated results; a
speed-only change must leave every pin as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import grids  # noqa: E402
import measure  # noqa: E402
from repro.experiments import figure_6_3, run_trial, trial_fingerprint  # noqa: E402
from timing import checksum  # noqa: E402


def main() -> int:
    pins = {}

    def pin(name, spec, result):
        digest = checksum(measure.comparable(result))
        pins[trial_fingerprint(spec)] = {"trial": name, "checksum": digest}

    for workload in grids.SERIAL_WORKLOADS:
        for name, spec in grids.SERIAL_GRIDS[workload](measure.DEFAULT_SEED):
            pin(workload + "/" + name, spec, run_trial(spec.replace(backend="pure")))
    kwargs = dict(grids.sweep_kwargs(measure.DEFAULT_SEED), backend="pure")
    with measure.FigureCapture() as capture:
        figure_6_3(**kwargs)
    for (name, spec), (_, result) in zip(
        measure.sweep_items(capture.pairs), capture.pairs
    ):
        pin("sweep/" + name, spec, result)
    path = HERE / "pins.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": measure.DEFAULT_SEED, "pins": pins}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %d trials in %s" % (len(pins), path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
