"""Mirror manifest: the Python bodies ``_corec.c`` replays, pinned.

Much of ``repro/_fastcore/_corec.c`` replays Python methods step for
step — the simulator's event loop (scheduling, cancellation, the timing
wheel and the generated drain loop), the CPU engine, NIC rings, queues,
IP forwarding, the driver IRQ handlers, the generators, and the trace
hooks inside all of them. The
parity matrix only notices an edit to one of those bodies when some
cell happens to reach the change; this test notices every edit. It pins
a normalized hash of each mirrored function (its syntax tree, without
docstrings, comments or layout), so changing one fails here until the C
mirror has been checked against it. Re-run the parity matrix and the
golden fixtures under ``REPRO_BACKEND=fast``, then re-pin with::

    PYTHONPATH=src python tests/experiments/test_mirror_manifest.py
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import json
import sys
import textwrap
from pathlib import Path

MANIFEST = Path(__file__).with_name("mirror_manifest.json")

#: ``module: [qualified names]`` of every Python function the C core
#: replays (properties by their getter).
MIRRORED = {
    "repro.sim.events": ["Event._rearm", "EventSlab.release"],
    "repro.sim.simulator": [
        "PeriodicEvent.cancel",
        "Simulator.schedule",
        "Simulator.schedule_at",
        "Simulator.schedule_periodic",
        "Simulator.cancel",
        "Simulator._compact",
        "Simulator._advance",
        "Simulator.step",
        "Simulator.peek_time",
        "Simulator.run",
        "Simulator.stats",
    ],
    "repro.sim._drain": ["drain_plain"],
    "repro.sim.units": ["cycles_to_ns", "ns_to_cycles"],
    "repro.sim.probes": ["Counter.increment"],
    "repro.sim.process": [
        "Process.__init__",
        "Process.on_exit",
        "Process.start",
        "Process.deliver",
        "Process._finish",
    ],
    "repro.hw.cpu": [
        "CpuTask.__init__",
        "CpuTask._refresh_key",
        "CpuTask._dispatch",
        "CPU.task",
        "CPU.add_work",
        "CPU.requeue_behind",
        "CPU.on_task_ipl_changed",
        "CPU.remove_task",
        "CPU._pick",
        "CPU._stop_current",
        "CPU._reschedule",
        "CPU._complete",
        "CPU._notify_ipl",
    ],
    "repro.hw.nic": [
        "NIC.receive_from_wire",
        "NIC.rx_pending",
        "NIC.rx_pull",
        "NIC.rx_pull_many",
        "NIC.tx_free_slots",
        "NIC.tx_done_slots",
        "NIC.tx_enqueue",
        "NIC.tx_reclaim",
        "NIC._kick_transmitter",
        "NIC._transmit_complete",
        "NIC.tx_idle",
    ],
    "repro.hw.interrupts": [
        "InterruptLine.request",
        "InterruptController.try_deliver",
        "InterruptController._handler_body",
        "InterruptController._handler_done",
        "InterruptController._on_ipl_change",
    ],
    "repro.kernel.queues": [
        "PacketQueue.full",
        "PacketQueue.enqueue",
        "PacketQueue.dequeue",
        "PacketQueue._fire_high_if_needed",
        "REDQueue.enqueue",
        "REDQueue._should_early_drop",
    ],
    "repro.kernel.kernel": ["Kernel._clock_handler"],
    "repro.net.packet": [
        "Packet.reset",
        "Packet.mark_nic_arrival",
        "Packet.mark_transmitted",
        "Packet.mark_dropped",
        "PacketPool.acquire",
        "PacketPool.release",
    ],
    "repro.net.routing": ["Route.matches", "RoutingTable.lookup"],
    "repro.net.arp": ["ArpTable.resolve"],
    "repro.net.ip": ["IPLayer.input_packet", "IPLayer._dispatch"],
    "repro.drivers.base": ["Driver._tx_service"],
    "repro.drivers.bsd": [
        "ClassicIPInput.enqueue",
        "BsdDriver._rx_handler",
        "BsdDriver.output",
        "BsdDriver._tx_handler",
    ],
    "repro.drivers.highipl": [
        "HighIplDriver._service_handler",
        "HighIplDriver.output",
    ],
    "repro.drivers.polled": [
        "PolledDriver._rx_stub",
        "PolledDriver._tx_stub",
        "PolledDriver.output",
    ],
    "repro.drivers.clocked": ["ClockedPollingDriver.output"],
    "repro.metrics.latency": ["LatencyRecorder.observe"],
    "repro.experiments.topology": [
        "Router._on_output_transmit",
        "Router._on_input_transmit",
    ],
    "repro.workloads.generators": [
        "TrafficGenerator._emit",
        "ConstantRateGenerator._next_gap",
        "ConstantRateGenerator._tick",
        "PoissonGenerator._next_gap",
        "PoissonGenerator._tick",
        "BurstyGenerator._arm_emit",
        "BurstyGenerator._tick",
        "BurstyGenerator._gap_over",
    ],
}


def _canonical(node) -> str:
    """A syntax tree as text, stable across Python versions: fields that
    are None or empty (``type_params`` on 3.12+, ``kind``, type comments)
    are left out."""
    if isinstance(node, ast.AST):
        fields = [
            "%s=%s" % (name, _canonical(value))
            for name, value in ast.iter_fields(node)
            if value is not None and value != []
        ]
        return "%s(%s)" % (type(node).__name__, ",".join(fields))
    if isinstance(node, list):
        return "[%s]" % ",".join(_canonical(item) for item in node)
    return repr(node)


def source_hash(module: str, qualname: str) -> str:
    obj = importlib.import_module(module)
    if module == "repro.sim._drain":
        # A drain loop is compiled from a rendered template, so no file
        # lies behind it; the module keeps the rendered text.
        source = obj.DRAIN_SOURCES[qualname[len("drain_"):]]
    else:
        for part in qualname.split("."):
            obj = inspect.getattr_static(obj, part)
        if isinstance(obj, property):
            obj = obj.fget
        source = textwrap.dedent(inspect.getsource(obj))
    tree = ast.parse(source).body[0]
    body = tree.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        tree.body = body[1:]  # the docstring
    return hashlib.sha256(_canonical(tree).encode("utf-8")).hexdigest()[:16]


def current_manifest() -> dict:
    return {
        "%s:%s" % (module, name): source_hash(module, name)
        for module, names in MIRRORED.items()
        for name in names
    }


def test_mirrored_python_bodies_match_their_pins():
    pinned = json.loads(MANIFEST.read_text())
    current = current_manifest()
    changed = sorted(
        name for name in current.keys() | pinned.keys()
        if current.get(name) != pinned.get(name)
    )
    assert not changed, (
        "Python bodies mirrored by _corec.c changed: %s. Port the change "
        "to the C mirror, re-run parity, then re-pin "
        "(PYTHONPATH=src python %s)." % (", ".join(changed), __file__)
    )


if __name__ == "__main__":
    manifest = current_manifest()
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    print("pinned %d mirrored functions in %s" % (len(manifest), MANIFEST))
    sys.exit(0)
