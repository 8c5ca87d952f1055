"""Modified driver: interrupts only initiate polling (§6.4).

The interrupt handler "does almost no work at all. Instead, it simply
schedules the polling thread (if it has not already been scheduled),
recording its need for packet processing, and then returns from the
interrupt. It does not set the device's interrupt-enable flag."

The driver's real work happens in the callbacks the polling thread
invokes:

* :meth:`rx_callback` — pull packets from the RX ring and run IP input
  processing **to completion** (forwarding to the output queue, or
  delivery to the screening queue), up to the quota;
* :meth:`tx_callback` — release completed TX descriptors and refill the
  ring from the ifqueue, up to the quota;
* :meth:`enable_interrupts` — the interrupt-enable callback, invoked
  only "once all the packets pending at an interface have been handled".
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
from .base import Driver, drain


class PolledDriver(Driver):
    """Interface driver registered with the polling system."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        name: str,
        tx_ipl: int = IPL_DEVICE,
    ) -> None:
        super().__init__(kernel, nic, ip_layer, name, tx_ipl=tx_ipl)
        self.rx_service_needed = False
        self.tx_service_needed = False
        self.polling = None  # set by PollingSystem.register
        self.rx_line = None
        self.tx_line = None
        self.rx_callback_runs = kernel.probes.counter(
            "driver.%s.rx_callback_runs" % name
        )
        self.tx_callback_runs = kernel.probes.counter(
            "driver.%s.tx_callback_runs" % name
        )

    def attach(self) -> None:
        if self.polling is None:
            raise RuntimeError(
                "polled driver %s not registered with a polling system" % self.name
            )
        self.rx_line = self.kernel.irq_line(
            "%s.rx" % self.name,
            IPL_DEVICE,
            self._rx_stub,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.tx_line = self.kernel.irq_line(
            "%s.tx" % self.name,
            self.tx_ipl,
            self._tx_stub,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.nic.attach_lines(self.rx_line, self.tx_line)

    # ------------------------------------------------------------------
    # Stub interrupt handlers (device IPL; "almost no work at all")
    # ------------------------------------------------------------------

    def _rx_stub(self):
        yield Work(self.costs.polled_stub_handler)
        self.rx_line.disable()
        self.rx_service_needed = True
        self.polling.wake()

    def _tx_stub(self):
        yield Work(self.costs.polled_stub_handler)
        self.tx_line.disable()
        self.tx_service_needed = True
        self.polling.wake()

    # ------------------------------------------------------------------
    # Service-needed predicates (checked by the polling thread)
    # ------------------------------------------------------------------

    def rx_pending(self) -> bool:
        return self.rx_service_needed or self.nic.rx_pending() > 0

    def tx_pending(self) -> bool:
        return (
            self.tx_service_needed
            or self.nic.tx_done_slots() > 0
            or (not self.ifqueue.empty and self.nic.tx_free_slots() > 0)
        )

    # ------------------------------------------------------------------
    # Polling callbacks
    # ------------------------------------------------------------------

    def rx_callback(self, quota: Optional[int]):
        """Process up to ``quota`` received packets to completion.

        Always pulls one descriptor at a time (never ``rx_pull_many``):
        the feedback / cycle-limit check between packets must be able to
        stop the drain with the backlog still *in the ring*, where it
        either soaks or overflow-drops for free.
        """
        self.rx_callback_runs.increment()
        self.rx_service_needed = False
        # Processed as far as possible in one go: IP input runs here, in
        # the polling thread — no ipintrq, no software interrupt. If
        # feedback or the cycle limit inhibits input mid-callback, the
        # drain stops at once ("inhibit further input processing").
        handled = yield from drain(
            self,
            self.nic.rx_pull,
            Work(self.costs.polled_rx_per_packet),
            self.rx_packets_processed,
            quota,
            self.polling,
        )
        pending = self.nic.rx_pending()
        if pending > 0:
            # Quota exhausted with backlog: ask to be polled again.
            self.rx_service_needed = True
            trace = self.trace
            if trace is not None:
                trace.record(QUOTA_EXHAUST, self.name, handled, pending)
        return handled

    def tx_callback(self, quota: Optional[int]):
        """Release done descriptors and refill the ring (quota-bounded)."""
        self.tx_callback_runs.increment()
        self.tx_service_needed = False
        moved = yield from self._tx_service(quota)
        if self.nic.tx_done_slots() > 0 or (
            not self.ifqueue.empty and self.nic.tx_free_slots() > 0
        ):
            self.tx_service_needed = True
        return moved

    def enable_interrupts(self, rx_allowed: bool = True) -> None:
        """Interrupt-enable callback (§6.4). When input processing is
        inhibited by feedback or the cycle limit, RX interrupts stay off."""
        if rx_allowed:
            self.rx_line.enable()
            if self.nic.rx_pending() > 0:
                # Events arrived between our last scan and re-enabling.
                self.rx_line.request()
        self.tx_line.enable()
        if self.nic.tx_done_slots() > 0:
            self.tx_line.request()

    # ------------------------------------------------------------------
    # IP output hook
    # ------------------------------------------------------------------

    def output(self, packet: Packet) -> None:
        accepted = self.ifqueue.enqueue(packet)
        if accepted and self.nic.tx_idle and self.nic.tx_done_slots() == 0:
            # Kick the polling thread only when the transmitter is fully
            # quiescent; otherwise the TX-complete interrupt (or an
            # already-scheduled poll) will pick the packet up — waking on
            # every enqueue would preempt the producer once per packet.
            self.tx_service_needed = True
            self.polling.wake()
