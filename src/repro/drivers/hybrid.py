"""NAPI-style hybrid driver: interrupt-arm → poll-drain → re-arm.

A middle point on the driver axis between the pure-interrupt classic
driver and the central polling system of §6.4, modelled on Linux NAPI:

* each interface owns a *per-device* softirq-like kernel thread (no
  shared polling daemon, no shared quota accounting);
* the RX/TX interrupt handlers are stubs — disable the line, mark the
  service need, schedule the thread ("almost no work at all");
* the thread drains the device in quota-bounded passes until no work
  remains, processing received packets to completion (IP input runs in
  the thread, no ipintrq), then re-enables interrupts;
* an **adaptive interrupt-coalescing timer** (cf. *Sorting Reordered
  Packets with Interrupt Coalescing*, PAPERS.md) delays the start of a
  drain after the scheduling interrupt: under sustained load the delay
  grows (batching more packets per interrupt, amortising dispatch
  cost), and it decays back toward zero when polls start coming up
  light — so an idle interface keeps interrupt-level latency.

The timer bound comes from :class:`repro.hw.machine.MachineSpec`
(``coalesce_us``); with the default 0 the driver is pure
schedule-on-interrupt NAPI. All adaptation is integer arithmetic on
deterministic inputs, so trials replay exactly.
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import IPL_DEVICE
from ..hw.nic import NIC
from ..kernel.kernel import Kernel
from ..net.ip import IPLayer
from ..net.packet import Packet
from ..sim.process import Sleep, WaitSignal, Work
from ..sim.signals import Signal
from ..trace.buffer import QUOTA_EXHAUST
from .base import Driver, drain

#: Floor of the adaptive timer once it is non-zero; growth starts here
#: and halving below it snaps to 0 (coalescing fully off).
MIN_COALESCE_NS = 1_000  # 1 µs


class HybridDriver(Driver):
    """Per-device NAPI context: stub IRQs plus a drain thread."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        name: str,
        tx_ipl: int = IPL_DEVICE,
        quota: Optional[int] = 10,
        coalesce_max_ns: int = 0,
        core: int = 0,
    ) -> None:
        super().__init__(kernel, nic, ip_layer, name, tx_ipl=tx_ipl)
        if quota is not None and quota <= 0:
            raise ValueError("hybrid quota must be positive or None")
        if coalesce_max_ns < 0:
            raise ValueError("coalesce_max_ns must be >= 0")
        self.quota = quota
        self.coalesce_max_ns = coalesce_max_ns
        #: Current adaptive delay between the scheduling interrupt and
        #: the drain; starts latency-first at 0.
        self.coalesce_ns = 0
        self.core = core
        self.rx_line = None
        self.tx_line = None
        self.thread = None
        self._signal = Signal(kernel.sim, "napi:%s" % name)
        self._scheduled = False
        self.rx_service_needed = False
        self.tx_service_needed = False
        probes = kernel.probes
        self.napi_polls = probes.counter("driver.%s.napi_polls" % name)
        self.napi_schedules = probes.counter("driver.%s.napi_schedules" % name)
        self.coalesce_grows = probes.counter("driver.%s.coalesce_grows" % name)
        self.coalesce_decays = probes.counter("driver.%s.coalesce_decays" % name)

    # ------------------------------------------------------------------

    def attach(self) -> None:
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
        self.thread = self.kernel.kernel_thread(
            self._napi_body(), "napi:%s" % self.name, core=self.core
        )

    # ------------------------------------------------------------------
    # Stub interrupt handlers (device IPL)
    # ------------------------------------------------------------------

    def _rx_stub(self):
        yield Work(self.costs.polled_stub_handler)
        self.rx_line.disable()
        self.rx_service_needed = True
        self._schedule()

    def _tx_stub(self):
        yield Work(self.costs.polled_stub_handler)
        self.tx_line.disable()
        self.tx_service_needed = True
        self._schedule()

    def _schedule(self) -> None:
        if not self._scheduled:
            self._scheduled = True
            self.napi_schedules.increment()
            self._signal.fire()

    # ------------------------------------------------------------------
    # The NAPI thread
    # ------------------------------------------------------------------

    def _napi_body(self):
        poll_work = Work(
            self.costs.poll_loop_overhead + self.costs.poll_device_check
        )
        per_packet_work = Work(self.costs.polled_rx_per_packet)
        quota = self.quota
        nic = self.nic
        while True:
            if not self._scheduled:
                yield WaitSignal(self._signal)
            self._scheduled = False
            if self.coalesce_ns > 0:
                # Hold off the drain so further arrivals share this pass.
                yield Sleep(self.coalesce_ns)
            drained = 0
            while True:
                self.napi_polls.increment()
                yield poll_work
                self.rx_service_needed = False
                handled = yield from drain(
                    self,
                    nic.rx_pull,
                    per_packet_work,
                    self.rx_packets_processed,
                    quota,
                )
                if handled and nic.rx_pending() > 0:
                    trace = self.trace
                    if trace is not None:
                        trace.record(
                            QUOTA_EXHAUST, self.name, handled, nic.rx_pending()
                        )
                self.tx_service_needed = False
                yield from self._tx_service(quota)
                drained += handled
                # Adapt once per poll pass, not once per drain: under
                # sustained overload the drain loop never goes idle, so
                # a post-loop adaptation would never run at all.
                self._adapt(drained, handled)
                if not (
                    nic.rx_pending() > 0
                    or nic.tx_done_slots() > 0
                    or (not self.ifqueue.empty and nic.tx_free_slots() > 0)
                ):
                    break
            # Work complete: re-arm the interrupt lines (NAPI "complete").
            self.rx_line.enable()
            if nic.rx_pending() > 0:
                self.rx_line.request()
            self.tx_line.enable()
            if nic.tx_done_slots() > 0:
                self.tx_line.request()

    def _adapt(self, drained: int, handled: int = None) -> None:
        """Grow the coalescing delay under sustained load, decay it when
        drains come up light. Deterministic integer arithmetic only.

        ``drained`` is the cumulative count for the current drain and
        drives growth (sustained pressure); ``handled`` is the last poll
        pass alone and drives decay (a light pass means the device went
        quiet). Callers without a per-pass figure may omit ``handled``.
        """
        if handled is None:
            handled = drained
        limit = self.coalesce_max_ns
        if limit == 0:
            return
        quota = self.quota if self.quota is not None else 16
        if handled < quota // 2 and self.coalesce_ns:
            shrunk = self.coalesce_ns // 2
            if shrunk < MIN_COALESCE_NS:
                shrunk = 0
            self.coalesce_ns = shrunk
            self.coalesce_decays.increment()
        elif drained >= quota * 2:
            grown = self.coalesce_ns * 2 if self.coalesce_ns else MIN_COALESCE_NS
            grown = min(limit, grown)
            if grown != self.coalesce_ns:
                self.coalesce_ns = grown
                self.coalesce_grows.increment()

    # ------------------------------------------------------------------
    # IP output hook
    # ------------------------------------------------------------------

    def output(self, packet: Packet) -> None:
        accepted = self.ifqueue.enqueue(packet)
        if accepted and self.nic.tx_idle and self.nic.tx_done_slots() == 0:
            # Transmitter fully quiescent: nothing will interrupt us into
            # a TX service pass, so schedule one.
            self.tx_service_needed = True
            self._schedule()
