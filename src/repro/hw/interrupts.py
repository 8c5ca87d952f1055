"""Interrupt controller and interrupt lines.

An :class:`InterruptLine` models one device interrupt source with the
three pieces of state that matter for the paper's mechanisms:

* ``enabled`` — the device-level interrupt-enable flag. The modified
  drivers of §6.4 clear it in the interrupt handler and set it again only
  from the polling thread's interrupt-enable callback.
* ``requested`` — the device is asserting the line (it has events).
* ``in_service`` — a handler dispatched for this line has not returned.

Delivery requires all of: requested, enabled, not in service, and the
line's IPL strictly above the CPU's current effective IPL. Undeliverable
requests stay pending and are retried whenever any of those inputs
changes (enable, handler return, CPU IPL drop).

Each delivery consumes the request (edge semantics) and spawns a fresh
handler task at the line's IPL, with the configured dispatch cost charged
before the handler body runs — this is the "dispatching an interrupt is a
costly operation" of §4.1, and interrupt batching amortises exactly this
cost.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.process import ProcessBody, Work
from ..trace.buffer import IRQ_DISPATCH, IRQ_REQUEST, IRQ_RETURN
from .cpu import CPU, CpuTask


HandlerFactory = Callable[[], ProcessBody]


class InterruptLine:
    """One interrupt source attached to an :class:`InterruptController`."""

    # Data lives in slots, which the compiled packet path reads by
    # offset; ``__dict__`` stays for the entry points it binds there.
    __slots__ = (
        "__dict__",
        "controller",
        "name",
        "ipl",
        "handler_factory",
        "dispatch_cycles",
        "_dispatch_work",
        "enabled",
        "requested",
        "in_service",
        "request_count",
        "dispatch_count",
        "suppressed_while_disabled",
        "faults",
        "trace",
    )

    def __init__(
        self,
        controller: "InterruptController",
        name: str,
        ipl: int,
        handler_factory: HandlerFactory,
        dispatch_cycles: int = 0,
    ) -> None:
        self.controller = controller
        self.name = name
        self.ipl = ipl
        self.handler_factory = handler_factory
        self.dispatch_cycles = dispatch_cycles
        # Every dispatch charges the same cost, so one Work command is
        # shared across dispatches instead of allocated per interrupt.
        self._dispatch_work = Work(dispatch_cycles) if dispatch_cycles > 0 else None
        self.enabled = True
        self.requested = False
        self.in_service = False
        self.request_count = 0
        self.dispatch_count = 0
        self.suppressed_while_disabled = 0
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`),
        #: bound by an armed injector; None on the fault-free fast path.
        self.faults = None
        #: Trace hook (:class:`repro.trace.TraceBuffer`), bound by
        #: ``Router.attach_trace``; None on the untraced fast path.
        self.trace = None

    # ------------------------------------------------------------------

    def request(self) -> None:
        """Assert the line (device has work). Idempotent while pending."""
        self.request_count += 1
        trace = self.trace
        if trace is not None:
            trace.record(IRQ_REQUEST, self.name)
        faults = self.faults
        if faults is not None:
            action = faults.on_irq_request(self)
            if action < 0:
                # Lost interrupt: the device asserted but the controller
                # never saw it. Nothing latches; a later assertion (the
                # next arrival, a stall-end kick) must re-raise.
                return
            if action > 0:
                # Duplicated interrupt: deliver once now, and latch a
                # second request that redelivers after the handler
                # returns (edge semantics make the extra assert visible
                # exactly then).
                self.request_count += 1
                self._assert_line()
        if not self.enabled:
            self.suppressed_while_disabled += 1
            self.requested = True
            return
        self.requested = True
        if not self.in_service:
            self.controller.try_deliver(self)

    def _assert_line(self) -> None:
        """One raw assertion, bypassing the fault hook (used for the
        duplicated-interrupt fault)."""
        if not self.enabled:
            self.suppressed_while_disabled += 1
            self.requested = True
            return
        self.requested = True
        if not self.in_service:
            self.controller.try_deliver(self)

    def enable(self) -> None:
        """Set the device interrupt-enable flag and deliver if pending."""
        if not self.enabled:
            self.enabled = True
            self.controller.try_deliver(self)

    def disable(self) -> None:
        """Clear the device interrupt-enable flag; requests latch silently."""
        self.enabled = False

    def acknowledge(self) -> None:
        """Consume a pending request without dispatching (drivers use this
        when a polled scan has already absorbed the events)."""
        self.requested = False

    def __repr__(self) -> str:
        flags = "".join(
            flag
            for flag, on in (
                ("E", self.enabled),
                ("R", self.requested),
                ("S", self.in_service),
            )
            if on
        )
        return "InterruptLine(%s, ipl=%d, %s)" % (self.name, self.ipl, flags or "-")


class InterruptController:
    """Routes interrupt requests to handler tasks on a CPU."""

    def __init__(self, cpu: CPU) -> None:
        self.cpu = cpu
        self.lines: List[InterruptLine] = []
        cpu.ipl_observers.append(self._on_ipl_change)

    def line(
        self,
        name: str,
        ipl: int,
        handler_factory: HandlerFactory,
        dispatch_cycles: int = 0,
    ) -> InterruptLine:
        """Create and register a new interrupt line."""
        created = InterruptLine(self, name, ipl, handler_factory, dispatch_cycles)
        self.lines.append(created)
        return created

    # ------------------------------------------------------------------

    def try_deliver(self, line: InterruptLine) -> bool:
        """Dispatch a handler for ``line`` if delivery conditions hold."""
        if not (line.requested and line.enabled and not line.in_service):
            return False
        current = self.cpu._current
        if line.ipl <= (current._eff_ipl if current is not None else 0):
            return False
        line.requested = False
        line.in_service = True
        line.dispatch_count += 1
        trace = line.trace
        if trace is not None:
            trace.record(IRQ_DISPATCH, line.name, line.ipl)
        task = self.cpu.task(
            self._handler_body(line), name="irq:" + line.name, ipl=line.ipl
        )
        task.on_exit(lambda _proc, _line=line: self._handler_done(_line))
        task.start()
        return True

    def _handler_body(self, line: InterruptLine) -> ProcessBody:
        if line._dispatch_work is not None:
            yield line._dispatch_work
        handler = line.handler_factory()
        if handler is not None:
            # ``yield from`` lets CPython resume the handler frame
            # directly on every Work completion. CPU tasks are only ever
            # resumed with None, so delegation is observably identical
            # to the explicit trampoline loop.
            yield from handler

    def _handler_done(self, line: InterruptLine) -> None:
        line.in_service = False
        trace = line.trace
        if trace is not None:
            trace.record(IRQ_RETURN, line.name)
        # The device may have re-asserted during service (e.g. packets
        # arrived after the handler's last ring scan).
        self.try_deliver(line)
        self._on_ipl_change(self.cpu.current_ipl)

    def _on_ipl_change(self, ipl: int) -> None:
        for line in self.lines:
            # Inline the cheap disqualifiers; try_deliver re-checks them.
            if (
                line.ipl > ipl
                and line.requested
                and line.enabled
                and not line.in_service
            ):
                self.try_deliver(line)

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            line.name: {
                "requests": line.request_count,
                "dispatches": line.dispatch_count,
                "suppressed_while_disabled": line.suppressed_while_disabled,
            }
            for line in self.lines
        }
