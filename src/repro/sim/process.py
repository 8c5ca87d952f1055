"""Generator-based simulation processes.

A process body is a Python generator that ``yield``\\ s command objects:

* :class:`Sleep` — suspend for a fixed amount of simulated time;
* :class:`WaitSignal` — block until a :class:`~repro.sim.signals.Signal`
  fires (the fired value is returned by the ``yield`` expression);
* :class:`Work` — consume CPU cycles. The base :class:`Process` rejects
  this; CPU-scheduled tasks (:class:`repro.hw.cpu.CpuTask`) accept it and
  hand it to the CPU model, which charges simulated time subject to
  priorities and preemption.

This split mirrors the system being modelled: traffic generators and wires
are environment processes (time passes but no router CPU is consumed),
whereas interrupt handlers, kernel threads and user processes are CPU
tasks whose every microsecond is accounted against the router CPU.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .errors import ProcessError
from .signals import Signal
from .simulator import Simulator

# Process lifecycle states.
NEW = "new"
ALIVE = "alive"
DONE = "done"
FAILED = "failed"
KILLED = "killed"


class Command:
    """Base class for values a process body may yield."""

    __slots__ = ()


class Sleep(Command):
    """Suspend the process for ``ns`` nanoseconds of simulated time."""

    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        if ns < 0:
            raise ValueError("cannot sleep a negative duration: %d" % ns)
        self.ns = ns

    def __repr__(self) -> str:
        return "Sleep(%d ns)" % self.ns


class WaitSignal(Command):
    """Block until ``signal`` fires; the fired value is sent back in."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal) -> None:
        self.signal = signal

    def __repr__(self) -> str:
        return "WaitSignal(%s)" % self.signal.name


class Work(Command):
    """Consume ``cycles`` CPU cycles (CPU tasks only)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cannot perform negative work: %d" % cycles)
        self.cycles = int(cycles)

    def __repr__(self) -> str:
        return "Work(%d cycles)" % self.cycles


ProcessBody = Generator[Command, Any, None]


class Process:
    """A simulation process driving a generator body.

    Subclasses may extend :meth:`_dispatch` to support more command types
    (the CPU task adds :class:`Work`).
    """

    # Data lives in slots, which the compiled packet path reads by
    # offset; ``__dict__`` stays for the entry points it binds there.
    __slots__ = (
        "__dict__",
        "sim",
        "name",
        "state",
        "_body",
        "_waiting_on",
        "_exit_callbacks",
        "exception",
    )

    def __init__(self, sim: Simulator, body: ProcessBody, name: str = "process") -> None:
        if not hasattr(body, "send"):
            raise ProcessError(
                "process body must be a generator, got %r" % type(body).__name__
            )
        self.sim = sim
        self.name = name
        self.state = NEW
        self._body = body
        self._waiting_on: Optional[Signal] = None
        self._exit_callbacks: List[Callable[["Process"], None]] = []
        self.exception: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state == ALIVE

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, KILLED)

    def on_exit(self, callback: Callable[["Process"], None]) -> None:
        """Register a callback invoked once when the process terminates."""
        self._exit_callbacks.append(callback)

    def start(self) -> "Process":
        """Begin executing the body (advances to the first yield)."""
        if self.state != NEW:
            raise ProcessError("process %s already started" % self.name)
        self.state = ALIVE
        self.deliver(None)
        return self

    def kill(self) -> None:
        """Terminate the process without resuming it again."""
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self.state = KILLED
        self._body.close()
        self._finish()

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------

    def deliver(self, value: Any) -> None:
        """Resume the body with ``value`` and dispatch its next command.

        Called by the engine (timers, signals, the CPU); client code should
        not call this directly.
        """
        if self.state == NEW:
            self.state = ALIVE
        if self.state != ALIVE:
            # A stale wake-up for a process that was killed meanwhile.
            return
        self._waiting_on = None
        try:
            command = self._body.send(value)
        except StopIteration:
            self.state = DONE
            self._finish()
            return
        except BaseException as exc:
            self.state = FAILED
            self.exception = exc
            self._finish()
            raise ProcessError(
                "process %s failed at t=%d ns" % (self.name, self.sim.now)
            ) from exc
        try:
            self._dispatch(command)
        except ProcessError:
            self.state = FAILED
            self._finish()
            raise

    # ------------------------------------------------------------------
    # Command dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, command: Command) -> None:
        if isinstance(command, Sleep):
            self.sim.schedule(command.ns, self.deliver, None, label="sleep:" + self.name)
        elif isinstance(command, WaitSignal):
            self._waiting_on = command.signal
            command.signal.add_waiter(self)
        elif isinstance(command, Work):
            raise ProcessError(
                "process %s yielded Work but is not a CPU task" % self.name
            )
        else:
            raise ProcessError(
                "process %s yielded unknown command %r" % (self.name, command)
            )

    def _finish(self) -> None:
        callbacks, self._exit_callbacks = self._exit_callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        return "%s(%s, %s)" % (type(self).__name__, self.name, self.state)
