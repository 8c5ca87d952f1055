"""Markers for tests that compare the compiled core with the oracle."""

import pytest

from repro._fastcore import FASTCORE_KIND

#: Without ``_corec``, ``backend="fast"`` builds the pure oracle, so a
#: fast-vs-pure test would only compare the oracle with itself.
needs_corec = pytest.mark.skipif(
    FASTCORE_KIND != "fast-c",
    reason="without _corec, backend=fast is the pure oracle",
)
