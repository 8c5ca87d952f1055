"""High-IPL driver: "do (almost) everything at high IPL" (§5.3).

The paper's *first* approach to avoiding preemption: "we can modify the
4.2BSD design by eliminating the software interrupt, polling interfaces
for events, and processing received packets to completion at device
IPL. Because higher-level processing occurs at device IPL, it cannot be
preempted by another packet arrival, and so we guarantee that livelock
does not occur within the kernel's protocol stack. We still need to use
a rate-control mechanism to ensure progress by user-level applications."

The interrupt handler therefore round-robins receive and transmit
service (with a quota, for output fairness) and runs IP forwarding to
completion — all at device IPL. In-kernel forwarding becomes
livelock-free, but *everything* below device IPL (user processes, even
the netisr-style threads of other subsystems) is masked while packets
flow, which is exactly why the paper ultimately prefers the second
approach (the polling thread at IPL 0, :mod:`repro.drivers.polled`).
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import IPL_DEVICE
from ..hw.nic import NIC
from ..kernel.kernel import Kernel
from ..net.ip import IPLayer
from ..net.packet import Packet
from ..sim.process import Work
from ..trace.buffer import QUOTA_EXHAUST
from .base import LIVE_QUOTA, Driver, drain


class HighIplDriver(Driver):
    """Processes packets to completion inside the interrupt handler."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        name: str,
        quota: Optional[int] = 10,
    ) -> None:
        super().__init__(kernel, nic, ip_layer, name, tx_ipl=IPL_DEVICE)
        self.quota = quota
        self.rx_line = None
        self.tx_line = None
        self.service_rounds = kernel.probes.counter(
            "driver.%s.highipl_rounds" % name
        )

    def attach(self) -> None:
        self.rx_line = self.kernel.irq_line(
            "%s.rx" % self.name,
            IPL_DEVICE,
            self._service_handler,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.tx_line = self.kernel.irq_line(
            "%s.tx" % self.name,
            IPL_DEVICE,
            self._service_handler,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.nic.attach_lines(self.rx_line, self.tx_line)

    # ------------------------------------------------------------------

    def _service_handler(self):
        """One handler serves both directions, alternating under the
        quota, until no work remains — all at device IPL."""
        batch_pull = self.kernel.config.rx_batch_pull
        per_packet_work = Work(self.costs.polled_rx_per_packet)
        while True:
            self.rx_line.acknowledge()
            self.tx_line.acknowledge()
            self.service_rounds.increment()
            handled = yield from drain(
                self,
                self.nic.rx_pull_many if batch_pull else self.nic.rx_pull,
                per_packet_work,
                self.rx_packets_processed,
                LIVE_QUOTA,
                batch=batch_pull,
            )
            trace = self.trace
            if trace is not None and handled:
                pending = self.nic.rx_pending()
                if pending > 0:
                    trace.record(QUOTA_EXHAUST, self.name, handled, pending)
            moved = yield from self._tx_service(self.quota)
            if handled == 0 and moved == 0:
                return

    # ------------------------------------------------------------------

    def output(self, packet: Packet) -> None:
        accepted = self.ifqueue.enqueue(packet)
        if accepted and self.nic.tx_idle and self.nic.tx_done_slots() == 0:
            self.tx_line.request()
