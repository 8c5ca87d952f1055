"""Event-core fixtures shared by the ``tests/sim`` modules."""

import pytest

from repro.sim.simulator import Simulator


@pytest.fixture(scope="module")
def make_sim():
    """The event core a behaviour test builds: the pure oracle here.
    ``test_event_core_on_corec.py`` binds it to the compiled core and
    collects every test that takes it a second time. Module scope, so
    hypothesis tests may take it."""
    return Simulator
