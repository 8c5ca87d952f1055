"""The event-core behaviour tests, run again on the compiled core.

Every test in ``test_simulator``, ``test_simulator_properties``,
``test_wheel`` and ``test_scheduler_hotpath`` that builds its simulator
through ``make_sim`` is collected here a second time, with ``make_sim``
bound to ``_corec``'s ``FastCore``. So the C ``schedule``,
``schedule_at``, ``schedule_periodic``, ``cancel``, ``step``,
``peek_time``, ``run`` and compaction are held to the behaviour the
oracle is tested for. The tests that read pure internals (``_cur``,
``PeriodicEvent._event``) build ``Simulator`` directly and stay
pure-only. The pure runs keep their own names in their own modules.
"""

import inspect

import pytest

from repro._fastcore import FastCore

from ..cores import needs_corec
from . import (
    test_scheduler_hotpath,
    test_simulator,
    test_simulator_properties,
    test_wheel,
)

pytestmark = needs_corec


@pytest.fixture(scope="module")
def make_sim():
    return FastCore


globals().update(
    (name, test)
    for module in (
        test_simulator,
        test_simulator_properties,
        test_wheel,
        test_scheduler_hotpath,
    )
    for name, test in vars(module).items()
    if name.startswith("test_")
    and "make_sim" in inspect.signature(test).parameters
)
