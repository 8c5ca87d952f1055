"""Clocked-interrupt driver: pure periodic polling (related work, §8).

Traw & Smith's "clocked interrupts" poll the interface at a fixed period
with no per-packet interrupts at all. The paper points out the dilemma:
"too high, and the system spends all its time polling; too low, and the
receive latency soars." This driver exists to reproduce that trade-off
as an ablation against the hybrid interrupt-initiated polling design.

The implementation reuses the polled driver's callbacks but drives them
from a periodic kernel thread instead of the interrupt-initiated polling
thread. Interrupt lines are created but permanently disabled.
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import IPL_DEVICE
from ..hw.nic import NIC
from ..kernel.kernel import Kernel
from ..net.ip import IPLayer
from ..net.packet import Packet
from ..sim.process import Sleep, Work
from ..trace.buffer import QUOTA_EXHAUST
from .base import LIVE_QUOTA, Driver, drain


class ClockedPollingDriver(Driver):
    """Polls the NIC every ``poll_interval_ns`` from a kernel thread."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        name: str,
        poll_interval_ns: int,
        quota: Optional[int] = None,
    ) -> None:
        if poll_interval_ns <= 0:
            raise ValueError("poll interval must be positive")
        super().__init__(kernel, nic, ip_layer, name, tx_ipl=IPL_DEVICE)
        self.poll_interval_ns = poll_interval_ns
        self.quota = quota
        self.thread = None
        #: Set by :meth:`set_poll_interval`; the poll loop rebinds its
        #: prebound Sleep at the top of the next round when this is True.
        self._interval_dirty = False
        self.polls = kernel.probes.counter("driver.%s.clocked_polls" % name)
        self.idle_polls = kernel.probes.counter("driver.%s.clocked_idle_polls" % name)

    def attach(self) -> None:
        self.thread = self.kernel.kernel_thread(
            self._poll_body(), "clockedpoll:%s" % self.name
        )

    def set_poll_interval(self, interval_ns: int) -> None:
        """Change the poll period; takes effect from the next round.

        The mitigation controller's actuator for the clocked driver: the
        poll loop prebinds its Sleep object, so a period change is a
        dirty-flag handoff rather than a per-round attribute read.
        """
        if interval_ns <= 0:
            raise ValueError("poll interval must be positive")
        if interval_ns != self.poll_interval_ns:
            self.poll_interval_ns = interval_ns
            self._interval_dirty = True

    def _poll_body(self):
        costs = self.costs
        batch_pull = self.kernel.config.rx_batch_pull
        pull = self.nic.rx_pull_many if batch_pull else self.nic.rx_pull
        sleep_period = Sleep(self.poll_interval_ns)
        poll_work = Work(costs.poll_loop_overhead + costs.poll_device_check)
        per_packet_work = Work(costs.polled_rx_per_packet)
        while True:
            if self._interval_dirty:
                self._interval_dirty = False
                sleep_period = Sleep(self.poll_interval_ns)
            yield sleep_period
            self.polls.increment()
            # Fixed cost of waking up and inspecting the device, paid on
            # every period whether or not anything arrived — the polling
            # overhead side of the dilemma.
            yield poll_work
            handled = yield from drain(
                self,
                pull,
                per_packet_work,
                self.rx_packets_processed,
                LIVE_QUOTA,
                batch=batch_pull,
            )
            worked = handled > 0
            trace = self.trace
            if trace is not None and handled:
                pending = self.nic.rx_pending()
                if pending > 0:
                    trace.record(QUOTA_EXHAUST, self.name, handled, pending)
            moved = yield from self._tx_service(self.quota)
            if moved:
                worked = True
            if not worked:
                self.idle_polls.increment()

    def output(self, packet: Packet) -> None:
        # Output waits for the next poll period too — no kick, by design.
        self.ifqueue.enqueue(packet)
