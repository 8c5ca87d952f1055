"""Compiled fast core for the simulator hot path (opt-in backend).

``repro._fastcore._corec`` is the hand-written C extension
(``backend_name == "fast-c"``), built by ``scripts/build_fastcore.py``
or the optional ``setup.py`` extension build. It is bit-identical to
the pure backend (same firing order, same RNG draw order, same
``TrialResult`` bytes); it only changes speed.

``FastCore`` is its simulator type, or None when the extension is
absent or failed to load. ``FASTCORE_KIND`` names what
``backend="fast"`` runs in this process: ``"fast-c"``, or ``"pure"``
when :mod:`repro.sim.backend` has to fall back to the oracle.
``FASTCORE_ERROR`` keeps the import error for diagnostics (an absent
extension is not an error, it is the no-toolchain install working as
designed).
"""

from __future__ import annotations

FASTCORE_ERROR = None

try:  # pragma: no cover - exercised only when the extension is built
    from ._corec import FastCore

    FASTCORE_KIND = "fast-c"
except ImportError as exc:
    FASTCORE_ERROR = exc
    FastCore = None
    FASTCORE_KIND = "pure"

__all__ = ["FastCore", "FASTCORE_KIND", "FASTCORE_ERROR"]
