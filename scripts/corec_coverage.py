#!/usr/bin/env python
"""Line coverage of the compiled core under the differential set.

Copies ``src/`` to a scratch directory, builds ``_corec`` there with gcov
instrumentation (``build_fastcore.build_corec(coverage=True)``), and
runs the checks that compare the compiled core with the pure oracle
under ``REPRO_BACKEND=fast``: the backend-parity matrix, both golden
fixtures, ``test_smp``, ``test_chaos`` and ``chaos --smoke``. It then
prints one row per C function (lines run, calls) and exits 1 when an
entry point that ``packetpath`` binds, or a PPGen body kind, never ran.
The optimised ``_corec`` in ``src/`` is left as it was.

    python scripts/corec_coverage.py
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro" / "_fastcore" / "_corec.c"
PACKETPATH = SOURCE.with_name("packetpath.py")

#: The differential set: every check of the compiled core against the
#: pure oracle.
TESTS = [
    "tests/experiments/test_backend_parity.py",
    "tests/experiments/test_golden_determinism.py",
    "tests/experiments/test_smp.py",
    "tests/experiments/test_chaos.py",
]
CHAOS = ["-m", "repro.cli", "chaos", "--smoke", "--seed", "0"]


def required(source: str, packetpath: str):
    """The C functions behind every kind ``packetpath`` binds, and the
    ``case`` line of every PPGen kind in ``ppgen_send``'s GS_START."""
    defs = dict(re.findall(
        r"static PyMethodDef (def_\w+) = \{\s*\"[^\"]*\",\s*"
        r"\(PyCFunction\)(?:\(void \(\*\)\(void\)\))?(\w+)",
        source,
    ))
    specs = re.findall(r'\{"([\w.]+)", &(def_\w+),', source)
    entries = {
        kind: defs[name]
        for kind, name in specs
        if '"%s"' % kind in packetpath or kind == "task.deliver"
    }
    for name in ("corec_pp_irq_proto", "ppf_irq_done"):
        entries[name] = name
    enum = source[source.index("/* Body kinds"):]
    kinds = re.findall(r"^\s+(PP(?:IRQ|T)_\w+),", enum[:enum.index("};")], re.M)
    lines = source.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.strip() == "case GS_START: {"
    )
    cases = {}
    for kind in kinds:
        for number in range(start, len(lines)):
            if lines[number].strip() in ("case %s:" % kind,
                                         "case %s: {" % kind):
                cases[kind] = number + 1  # gcov numbers lines from 1
                break
    unfound = [kind for kind in kinds if kind not in cases]
    if unfound:
        raise SystemExit(
            "corec coverage: no `case KIND:` line after GS_START for %s"
            % ", ".join(unfound)
        )
    return entries, cases


def build(work: Path) -> Path:
    shutil.copytree(
        REPO / "src", work / "src",
        ignore=shutil.ignore_patterns("*.so", "__pycache__"),
    )
    sys.path.insert(0, str(REPO / "scripts"))
    from build_fastcore import build_corec

    return build_corec(verbose=True, coverage=True,
                       pkg=work / "src" / "repro" / "_fastcore")


def run_differential(work: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), REPRO_BACKEND="fast",
               REPRO_CACHE_DIR=str(work / "cache"))
    worst = 0
    for cmd in ([sys.executable, "-m", "pytest", "-q", "-p",
                 "no:cacheprovider", *TESTS], [sys.executable, *CHAOS]):
        print("$", " ".join(cmd), flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=REPO, env=env).returncode)
    return worst


def gcov(so: Path) -> dict:
    gcda = next(so.parent.glob("*.gcda"))
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda.name],
        cwd=so.parent, check=True, capture_output=True, text=True,
    ).stdout
    return next(
        f for f in json.loads(out)["files"] if f["file"].endswith("_corec.c")
    )


def report(data: dict, entries: dict, cases: dict) -> int:
    ran = {}
    for line in data["lines"]:
        name = line["function_name"]
        total, hit = ran.get(name, (0, 0))
        ran[name] = (total + 1, hit + (line["count"] > 0))
    counts = {line["line_number"]: line["count"] for line in data["lines"]}
    print("%-32s %7s %7s %12s" % ("function", "lines", "run", "calls"))
    for fn in sorted(data["functions"], key=lambda f: f["start_line"]):
        total, hit = ran.get(fn["name"], (0, 0))
        print("%-32s %7d %6.0f%% %12d" % (
            fn["name"], total, 100.0 * hit / max(1, total),
            fn["execution_count"],
        ))
    calls = {fn["name"]: fn["execution_count"] for fn in data["functions"]}
    missing = sorted(
        "binding %s (%s)" % (kind, fn)
        for kind, fn in entries.items() if not calls.get(fn)
    )
    missing += sorted(
        "PPGen kind %s" % kind
        for kind, number in cases.items()
        if not max(counts.get(number, 0), counts.get(number + 1, 0))
    )
    covered = sum(1 for line in data["lines"] if line["count"] > 0)
    print("\n%d of %d executable lines run (%.0f%%); %d bindings, %d PPGen "
          "kinds checked" % (covered, len(data["lines"]),
                             100.0 * covered / len(data["lines"]),
                             len(entries), len(cases)))
    for item in missing:
        print("never ran: %s" % item)
    return 1 if missing else 0


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    entries, cases = required(SOURCE.read_text(), PACKETPATH.read_text())
    with tempfile.TemporaryDirectory(prefix="corec-coverage-") as tmp:
        work = Path(tmp)
        so = build(work)
        if run_differential(work):
            print("corec coverage: the differential set failed")
            return 1
        return report(gcov(so), entries, cases)


if __name__ == "__main__":
    raise SystemExit(main())
