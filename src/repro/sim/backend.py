"""Runtime selection between the pure and compiled simulator cores.

Three knobs, highest priority first:

1. ``TrialSpec.backend`` / the ``backend=`` trial kwarg;
2. the ``REPRO_BACKEND`` environment variable;
3. the default: ``"pure"``.

``"pure"`` is the reference oracle — the plain-python
:class:`~repro.sim.simulator.Simulator`. ``"fast"`` is the C core
:class:`repro._fastcore.FastCore` (``fast-c``); where that extension is
absent, :func:`make_simulator` falls back to the oracle with a logged
reason, so the trial reports ``pure``. The two cores are bit-identical
by contract, which is why the backend is *stripped from cache
fingerprints* (:mod:`repro.experiments.engine`): a cached trial is
valid for either backend, and ``TrialResult.backend`` records which
core actually computed it.

The invariant sanitizer is the one feature the compiled core does not
carry (it rescans Python-visible queue internals after every N fired
events): ``sanitize=True`` trials are likewise forced back to ``pure``
with a logged reason (see ``repro.experiments.harness.run_trial``).
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from .simulator import Simulator

log = logging.getLogger("repro.backend")

PURE = "pure"
FAST = "fast"
BACKENDS = (PURE, FAST)

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"


def resolve_backend(name: Optional[str] = None) -> str:
    """Normalize a backend request to ``"pure"`` or ``"fast"``.

    ``None`` consults :data:`ENV_VAR`, then defaults to ``"pure"``.
    Unknown names raise ``ValueError`` — a typo silently running the
    wrong core would be worse than a crash.
    """
    if name is None:
        name = os.environ.get(ENV_VAR) or PURE
    if name not in BACKENDS:
        raise ValueError(
            "unknown simulator backend %r (expected one of %s, or unset)"
            % (name, "/".join(BACKENDS))
        )
    return name


def make_simulator(backend: Optional[str] = None) -> Simulator:
    """A fresh simulator for the resolved ``backend``.

    The returned object's ``backend_name`` says what actually runs:
    ``"fast-c"`` for ``"fast"`` when the C extension is built, else
    ``"pure"`` (with a logged warning when ``"fast"`` was requested).
    """
    if resolve_backend(backend) == FAST:
        from repro import _fastcore

        if _fastcore.FastCore is not None:
            return _fastcore.FastCore()
        log.warning(
            "backend=fast needs the compiled C extension (%s); falling "
            "back to backend=pure",
            _fastcore.FASTCORE_ERROR,
        )
    return Simulator()
