#!/usr/bin/env python
"""Build the optional compiled fast core (repro._fastcore).

The hand-written C extension ``_corec`` (backend ``fast-c``) needs only
a C compiler and the CPython headers. It is not required: without it,
``backend=fast`` falls back to the pure backend with a logged reason.
This script therefore *never fails the install*; run it directly (or
via ``setup.py build_ext``) to opt in.

The artifact is written next to the sources
(``src/repro/_fastcore/_corec.<abi>.so``) so ``PYTHONPATH=src`` runs
pick it up without an install step. Build products are gitignored.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import sysconfig
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PKG = REPO / "src" / "repro" / "_fastcore"
SOURCE = PKG / "_corec.c"


def _corec_out(pkg: Path = PKG) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return pkg / ("_corec%s" % suffix)


def corec_stale() -> bool:
    """True when ``_corec.c`` is newer than the installed ``.so``.

    Without this check an edited source would silently keep importing
    the previously built extension — the worst kind of stale, because
    the identity tests then validate yesterday's code.
    """
    out = _corec_out()
    if not out.exists():
        return True
    return SOURCE.stat().st_mtime > out.stat().st_mtime


def build_corec(verbose: bool = True, coverage: bool = False,
                pkg: Path = PKG) -> Path:
    """Compile ``pkg/_corec.c`` into an importable extension; returns
    the path. ``coverage`` builds it unoptimised with gcov
    instrumentation, which ``scripts/corec_coverage.py`` does in a
    scratch copy of ``src/``."""
    cc = sysconfig.get_config_var("CC") or "cc"
    out = _corec_out(pkg)
    flags = ["-O0", "-g", "--coverage"] if coverage else ["-O2", "-g0"]
    cmd = cc.split() + flags + [
        "-fno-semantic-interposition",
        "-fPIC",
        "-shared",
        "-I",
        sysconfig.get_paths()["include"],
        str(pkg / SOURCE.name),
        "-o",
        str(out),
    ]
    if verbose:
        print(" ".join(cmd))
    subprocess.run(cmd, check=True)
    return out


def verify() -> str:
    """Import the freshly built core and prove it loads."""
    sys.path.insert(0, str(REPO / "src"))
    for mod in [m for m in list(sys.modules) if m.startswith("repro")]:
        del sys.modules[mod]
    from repro._fastcore import FASTCORE_ERROR, FASTCORE_KIND

    if FASTCORE_ERROR is not None:
        raise SystemExit("fast core failed to load: %r" % (FASTCORE_ERROR,))
    return FASTCORE_KIND


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="rebuild even when the installed .so is newer than the sources",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()
    out = _corec_out()
    if args.force or corec_stale():
        out = build_corec(verbose=not args.quiet)
        built = "built"
    else:
        built = "up to date"
        if not args.quiet:
            print("%s is newer than %s; skipping (use --force to rebuild)"
                  % (out.name, SOURCE.name))
    kind = verify()
    print("%s %s (resolved backend flavour: %s)" % (built, out.name, kind))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
