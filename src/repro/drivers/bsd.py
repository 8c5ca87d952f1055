"""Classic interrupt-driven driver (4.2BSD / stock Digital UNIX, fig 6-2).

Receive path: the RX interrupt handler runs at device IPL, drains the
ring with **interrupt batching** ("the interrupt handler attempts to
process as many packets as possible before returning", §4.1), charges
the per-packet device-level cost, and enqueues each packet on the shared
``ipintrq``. Higher-layer processing is then posted either as a SPLNET
software interrupt (4.2BSD) or by waking the ``netisr`` kernel thread
(Digital UNIX) — both run *below* device IPL, which is exactly why input
overload starves them into receive livelock (§6.3).

Transmit path: the IP layer's output hook appends to the bounded
``ifqueue``; the TX interrupt handler (normally at the same device IPL)
releases completed descriptors and refills the ring. A configuration
knob lowers the TX IPL to reproduce the transmit starvation of §4.4.
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import IPL_DEVICE, IPL_SOFTNET
from ..hw.nic import NIC
from ..kernel.config import IP_LAYER_SOFTIRQ, IP_LAYER_THREAD
from ..kernel.kernel import Kernel
from ..kernel.queues import PacketQueue
from ..net.ip import IPLayer
from ..net.packet import Packet
from ..sim.process import WaitSignal, Work
from ..sim.signals import Signal
from .base import Driver, drain


class ClassicIPInput:
    """The shared IP input stage: ``ipintrq`` plus the context draining it.

    One instance serves all interfaces (BSD has a single ipintrq). Mode
    ``softirq`` drains from a SPLNET software interrupt; mode ``thread``
    drains from a separately scheduled kernel thread at IPL 0.
    """

    def __init__(self, kernel: Kernel, ip_layer: IPLayer) -> None:
        self.kernel = kernel
        self.ip = ip_layer
        self.costs = kernel.costs
        self.mode = kernel.config.ip_layer_mode
        config = kernel.config
        #: §5.1 interrupt-rate limiting: with feedback enabled, a full
        #: ipintrq disables every interface's input interrupts; they are
        #: re-enabled when the queue drains to its low watermark
        #: ("interrupts may be re-enabled when internal buffer space
        #: becomes available").
        self.input_feedback = config.classic_input_feedback
        watermarks = {}
        if self.input_feedback:
            watermarks = dict(
                high_watermark=config.ipintrq_limit,
                low_watermark=max(
                    1, int(config.ipintrq_limit * config.ipintrq_low_fraction)
                ),
            )
        self.ipintrq = PacketQueue(
            "ipintrq", config.ipintrq_limit, kernel.probes, **watermarks
        )
        if self.input_feedback:
            self.ipintrq.on_high.append(self._inhibit_all_input)
            self.ipintrq.on_low.append(self._resume_all_input)
        self.drivers: list = []
        #: Packet dequeued from ipintrq but still inside the suspended
        #: softirq/netisr frame; read by the teardown path (no leaks on
        #: mid-flight abort).
        self.in_flight = None
        self.input_inhibits = kernel.probes.counter("ipintrq.input_inhibits")
        self._softnet_line = None
        self._netisr_signal: Optional[Signal] = None
        self._thread = None

    def attach(self) -> None:
        if self.mode == IP_LAYER_SOFTIRQ:
            self._softnet_line = self.kernel.interrupts.line(
                "softnet",
                IPL_SOFTNET,
                self._softirq_body,
                dispatch_cycles=self.costs.softirq_post,
            )
        elif self.mode == IP_LAYER_THREAD:
            self._netisr_signal = Signal(self.kernel.sim, "netisr")
            self._thread = self.kernel.kernel_thread(
                self._netisr_body(), "netisr"
            )
        else:  # pragma: no cover - config.validate rejects this
            raise ValueError("unknown ip layer mode %r" % self.mode)

    def register_driver(self, driver: "BsdDriver") -> None:
        """Interfaces whose input interrupts the feedback controls."""
        self.drivers.append(driver)

    def _inhibit_all_input(self, _queue: PacketQueue) -> None:
        for driver in self.drivers:
            if driver.rx_line is not None and driver.rx_line.enabled:
                self.input_inhibits.increment()
                driver.rx_line.disable()

    def _resume_all_input(self, _queue: PacketQueue) -> None:
        for driver in self.drivers:
            if driver.rx_line is not None and not driver.rx_line.enabled:
                driver.rx_line.enable()
                if driver.nic.rx_pending() > 0:
                    driver.rx_line.request()

    # ------------------------------------------------------------------
    # Producer side (called from RX interrupt handlers at device IPL)
    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for IP processing; returns False if dropped."""
        accepted = self.ipintrq.enqueue(packet)
        if accepted:
            self.post()
        return accepted

    def post(self) -> None:
        """Request IP-layer processing (softirq raise or thread wakeup)."""
        if self._softnet_line is not None:
            self._softnet_line.request()
        elif self._netisr_signal is not None:
            self._netisr_signal.fire()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def _softirq_body(self):
        """SPLNET handler: drain ipintrq completely, then return."""
        yield from drain(
            self,
            self.ipintrq.dequeue,
            Work(self.costs.ipintrq_dequeue),
            acknowledge=self._softnet_line.acknowledge,
        )

    def _netisr_body(self):
        """netisr kernel thread: drain ipintrq, sleep when empty."""
        dequeue_work = Work(self.costs.ipintrq_dequeue)
        ipintrq_dequeue = self.ipintrq.dequeue
        while True:
            yield from drain(self, ipintrq_dequeue, dequeue_work)
            yield WaitSignal(self._netisr_signal)


class BsdDriver(Driver):
    """Interrupt-driven driver for one interface (the unmodified kernel)."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        ip_input: ClassicIPInput,
        name: str,
        tx_ipl: int = IPL_DEVICE,
        extra_rx_cycles: int = 0,
    ) -> None:
        super().__init__(kernel, nic, ip_layer, name, tx_ipl=tx_ipl)
        self.ip_input = ip_input
        #: Extra per-packet RX cost; used by the "modified kernel acting
        #: as unmodified" configuration of fig 6-3 (compat overhead).
        self.extra_rx_cycles = extra_rx_cycles
        self.rx_line = None
        self.tx_line = None

    def attach(self) -> None:
        self.ip_input.register_driver(self)
        self.rx_line = self.kernel.irq_line(
            "%s.rx" % self.name,
            IPL_DEVICE,
            self._rx_handler,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.tx_line = self.kernel.irq_line(
            "%s.tx" % self.name,
            self.tx_ipl,
            self._tx_handler,
            dispatch_cycles=self.costs.interrupt_dispatch,
        )
        self.nic.attach_lines(self.rx_line, self.tx_line)

    # ------------------------------------------------------------------
    # RX interrupt handler (device IPL, with batching)
    # ------------------------------------------------------------------

    def _rx_handler(self):
        per_packet_work = Work(
            self.costs.rx_device_per_packet + self.extra_rx_cycles
        )
        softirq_post_work = Work(self.costs.softirq_post)
        rx_line = self.rx_line
        rx_pull = self.nic.rx_pull
        rx_processed_inc = self.rx_packets_processed.increment
        ip_enqueue = self.ip_input.enqueue
        while True:
            # §5.1 rate limiting: if feedback disabled our input
            # interrupts mid-batch, stop pulling — the RX ring buffers
            # ("additional incoming packets may accumulate there").
            if not rx_line.enabled:
                return
            # Consume the pending request before the emptiness check so a
            # packet arriving after the check re-raises the interrupt.
            rx_line.acknowledge()
            packet = rx_pull()
            if packet is None:
                return
            self.in_flight = packet
            yield per_packet_work
            rx_processed_inc()
            accepted = ip_enqueue(packet)
            self.in_flight = None
            if accepted:
                yield softirq_post_work
            # If ipintrq was full the packet is dropped *after* the
            # device-level work was spent on it — the wasted work at the
            # heart of §4.2 (the queue's drop counter records it).

    # ------------------------------------------------------------------
    # TX path
    # ------------------------------------------------------------------

    def output(self, packet: Packet) -> None:
        """IP output hook: append to ifqueue and kick the transmitter."""
        accepted = self.ifqueue.enqueue(packet)
        if accepted and self.nic.tx_idle and self.nic.tx_done_slots() == 0:
            # Transmitter idle with nothing awaiting reclaim: emulate the
            # if_start() call by raising the TX service interrupt.
            self.tx_line.request()

    def _tx_handler(self):
        while True:
            self.tx_line.acknowledge()
            moved = yield from self._tx_service(quota=None)
            if (
                self.nic.tx_done_slots() == 0
                and (self.ifqueue.empty or self.nic.tx_free_slots() == 0)
            ):
                return
            if moved == 0 and self.nic.tx_done_slots() == 0:
                return
