"""Preemptive CPU model with interrupt priority levels (IPLs).

This models the scheduling substrate the paper's argument rests on
(§4.1): code runs at an *interrupt priority level*; an interrupt whose
IPL exceeds the IPL of the currently running code preempts it
immediately, and tasks at the same or lower IPL wait. Threads (kernel
threads, user processes, the idle loop) run at IPL 0 and are ordered by a
priority class plus FIFO order, giving the usual UNIX picture:

    clock interrupts  >  device interrupts  >  software interrupts
        >  kernel threads  >  user processes  >  idle

Execution is modelled as generator-based tasks (:class:`CpuTask`) that
yield :class:`~repro.sim.process.Work` commands. The CPU charges the
cycles as simulated time, suspending the task's progress whenever a
higher-priority task becomes runnable. Work is conserved across
preemption: a preempted chunk resumes where it stopped.

The CPU also exposes a fine-grained cycle counter
(:meth:`CPU.read_cycle_counter`), the analogue of the Alpha PCC register
that the paper's cycle-limit mechanism reads (§7).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.errors import ProcessError
from ..sim.process import Command, Process, ProcessBody, Work
from ..sim.simulator import Simulator
from ..sim.units import cycles_to_ns, ns_to_cycles
from ..trace.buffer import CPU_IDLE, CPU_RUN

# ----------------------------------------------------------------------
# Interrupt priority levels. Higher value = higher priority. The values
# mirror the BSD spl ordering used in the paper: SPLCLOCK > SPLIMP
# (device) > SPLNET (software network interrupt) > SPL0 (threads).
# ----------------------------------------------------------------------
IPL_NONE = 0
IPL_SOFTNET = 1
IPL_DEVICE = 3
IPL_CLOCK = 5
IPL_HIGH = 7

#: Priority classes for IPL-0 tasks (threads). Higher runs first.
CLASS_INTERRUPT = 3  # implicit class of interrupt contexts (unused for threads)
CLASS_KERNEL = 2
CLASS_USER = 1
CLASS_IDLE = 0


class Spl(Command):
    """Set the yielding task's software priority level (BSD ``splx``).

    The task's effective IPL becomes ``max(base_ipl, level)``. Lowering
    the level lets pending interrupts in. Yielding ``Spl`` consumes no
    simulated time.
    """

    __slots__ = ("level",)

    def __init__(self, level: int) -> None:
        self.level = level

    def __repr__(self) -> str:
        return "Spl(%d)" % self.level


class CpuTask(Process):
    """A process whose :class:`Work` is executed by a :class:`CPU`.

    ``ipl`` is the base interrupt priority (0 for threads), and
    ``priority_class`` orders IPL-0 tasks (kernel > user > idle).
    """

    __slots__ = (
        "cpu",
        "base_ipl",
        "spl_level",
        "priority_class",
        "cycles_used",
        "_ready_seq",
        "_eff_ipl",
        "_key",
        "_work_label",
    )

    def __init__(
        self,
        cpu: "CPU",
        body: ProcessBody,
        name: str,
        ipl: int = IPL_NONE,
        priority_class: int = CLASS_USER,
    ) -> None:
        super().__init__(cpu.sim, body, name=name)
        self.cpu = cpu
        self.base_ipl = ipl
        self.spl_level = 0
        self.priority_class = priority_class
        self.cycles_used = 0
        self._ready_seq = 0  # FIFO order among equal-priority tasks
        # The dispatcher compares tasks on every reschedule, so the
        # effective IPL and the sort key are cached and maintained at
        # their (rare) change points instead of recomputed per pick.
        self._eff_ipl = ipl
        self._key = (ipl, priority_class, 0)
        self._work_label = "work:" + name

    @property
    def effective_ipl(self) -> int:
        return self._eff_ipl

    def _refresh_key(self) -> None:
        self._eff_ipl = (
            self.base_ipl if self.base_ipl >= self.spl_level else self.spl_level
        )
        self._key = (self._eff_ipl, self.priority_class, -self._ready_seq)

    def runnable_key(self):
        """Sort key maximised by the dispatcher."""
        return self._key

    def kill(self) -> None:
        """Terminate the task, withdrawing any queued CPU work."""
        self.cpu.remove_task(self)
        super().kill()

    def _dispatch(self, command: Command) -> None:
        if type(command) is Work:
            self.cpu.add_work(self, command.cycles)
        elif isinstance(command, Spl):
            old = self._eff_ipl
            self.spl_level = command.level
            self._refresh_key()
            self.cpu.on_task_ipl_changed(self, old)
            self.deliver(None)
        elif isinstance(command, Work):
            self.cpu.add_work(self, command.cycles)
        else:
            super()._dispatch(command)


class CPU:
    """A single CPU executing :class:`CpuTask` work under IPL preemption."""

    # Data lives in slots, which the compiled packet path reads by
    # offset; ``__dict__`` stays for the entry points it binds there.
    __slots__ = (
        "__dict__",
        "sim",
        "hz",
        "name",
        "index",
        "context_switch_cycles",
        "_remaining",
        "_current",
        "_completion",
        "_chunk_started",
        "_seq",
        "_last_thread",
        "busy_ns",
        "switches",
        "preemptions",
        "ipl_observers",
        "account_observers",
        "trace",
    )

    def __init__(
        self,
        sim: Simulator,
        hz: int = 150_000_000,
        context_switch_cycles: int = 0,
        name: str = "cpu0",
        index: int = 0,
    ) -> None:
        self.sim = sim
        self.hz = hz
        self.name = name
        #: Core index on a multi-core machine. All cores share one
        #: calendar-queue simulator; at equal timestamps events fire in
        #: scheduling order, and the kernel constructs and starts cores
        #: in index order, so the effective same-instant tie-break is
        #: the core index (DESIGN.md §14).
        self.index = index
        self.context_switch_cycles = context_switch_cycles
        # Tasks with pending work, mapped to remaining nanoseconds.
        self._remaining: Dict[CpuTask, int] = {}
        self._current: Optional[CpuTask] = None
        self._completion = None  # pending completion Event for _current
        self._chunk_started: int = 0
        self._seq = 0
        self._last_thread: Optional[CpuTask] = None
        self.busy_ns = 0
        self.switches = 0
        self.preemptions = 0
        #: Hook invoked with the new effective IPL whenever it may have
        #: dropped; the interrupt controller uses it to deliver pending
        #: interrupts. Installed by :class:`repro.hw.interrupts.InterruptController`.
        self.ipl_observers: List[Callable[[int], None]] = []
        #: Hooks invoked as ``observer(task, elapsed_ns)`` whenever a
        #: task is charged CPU time (on chunk completion and on
        #: preemption). Used by :class:`repro.metrics.cpuaccount.CpuAccountant`.
        self.account_observers: List[Callable[["CpuTask", int], None]] = []
        #: Trace hook (:class:`repro.trace.TraceBuffer`), bound by
        #: ``Router.attach_trace``; None on the untraced fast path. The
        #: dispatcher records context switches; CPU-time accounting goes
        #: through :attr:`account_observers` (zero cost when empty).
        self.trace = None

    # ------------------------------------------------------------------
    # Task construction helpers
    # ------------------------------------------------------------------

    def task(
        self,
        body: ProcessBody,
        name: str,
        ipl: int = IPL_NONE,
        priority_class: int = CLASS_USER,
    ) -> CpuTask:
        """Create (but do not start) a task bound to this CPU."""
        return CpuTask(self, body, name=name, ipl=ipl, priority_class=priority_class)

    def spawn(
        self,
        body: ProcessBody,
        name: str,
        ipl: int = IPL_NONE,
        priority_class: int = CLASS_USER,
    ) -> CpuTask:
        """Create and immediately start a task bound to this CPU."""
        return self.task(body, name, ipl=ipl, priority_class=priority_class).start()

    # ------------------------------------------------------------------
    # Clocks and counters
    # ------------------------------------------------------------------

    def read_cycle_counter(self) -> int:
        """The free-running cycle counter (Alpha PCC analogue)."""
        return ns_to_cycles(self.sim.now, self.hz)

    @property
    def current_task(self) -> Optional[CpuTask]:
        return self._current

    @property
    def last_thread(self) -> Optional[CpuTask]:
        """The IPL-0 thread that ran most recently (it is the thread an
        interrupt handler has preempted — what ``hardclock`` samples)."""
        return self._last_thread

    @property
    def current_ipl(self) -> int:
        return self._current._eff_ipl if self._current is not None else IPL_NONE

    @property
    def runnable_count(self) -> int:
        return len(self._remaining)

    # ------------------------------------------------------------------
    # Work management (engine interface, called from CpuTask._dispatch)
    # ------------------------------------------------------------------

    def add_work(self, task: CpuTask, cycles: int) -> None:
        """Queue ``cycles`` of work for ``task`` and reschedule."""
        ns = cycles_to_ns(cycles, self.hz)
        remaining = self._remaining
        if task in remaining:
            remaining[task] += ns
        else:
            self._seq += 1
            task._ready_seq = self._seq
            task._refresh_key()
            remaining[task] = ns
        self._reschedule()

    def requeue_behind(self, task: CpuTask) -> None:
        """Move a runnable task to the back of its priority class (used by
        the kernel scheduler for round-robin quantum rotation)."""
        if task in self._remaining:
            self._seq += 1
            task._ready_seq = self._seq
            task._refresh_key()
            self._reschedule()

    def on_task_ipl_changed(self, task: CpuTask, old_ipl: int) -> None:
        """React to an spl change of a (possibly running) task."""
        self._reschedule()
        if task._eff_ipl < old_ipl:
            self._notify_ipl()

    def remove_task(self, task: CpuTask) -> None:
        """Forget a killed task's pending work."""
        if task is self._current:
            self._stop_current(account=True)
        self._remaining.pop(task, None)
        self._reschedule()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _pick(self) -> Optional[CpuTask]:
        best: Optional[CpuTask] = None
        best_key = None
        for task in self._remaining:
            key = task._key
            if best_key is None or key > best_key:
                best, best_key = task, key
        return best

    def _stop_current(self, account: bool) -> None:
        """Halt the running chunk, saving unfinished work."""
        task = self._current
        if task is None:
            return
        if self._completion is not None:
            self.sim.cancel(self._completion)
            self._completion = None
        if account:
            elapsed = self.sim.now - self._chunk_started
            if elapsed > 0:
                if task in self._remaining:
                    self._remaining[task] = max(0, self._remaining[task] - elapsed)
                task.cycles_used += ns_to_cycles(elapsed, self.hz)
                self.busy_ns += elapsed
                for observer in self.account_observers:
                    observer(task, elapsed)
        self._current = None

    def _reschedule(self) -> None:
        best = self._pick()
        if best is self._current:
            return
        if self._current is not None:
            self.preemptions += 1
            self._stop_current(account=True)
        if best is None:
            trace = self.trace
            if trace is not None:
                trace.record(CPU_IDLE, self.name)
            self._notify_ipl()
            return
        # Charge a context-switch penalty when control moves between
        # different IPL-0 threads (interrupt entry/exit costs are part of
        # the interrupt dispatch cost instead).
        if best._eff_ipl == IPL_NONE:
            if (
                self.context_switch_cycles > 0
                and self._last_thread is not best
                and self._last_thread is not None
            ):
                self._remaining[best] += cycles_to_ns(
                    self.context_switch_cycles, self.hz
                )
                self.switches += 1
            self._last_thread = best
        self._current = best
        self._chunk_started = self.sim.now
        trace = self.trace
        if trace is not None:
            trace.record(CPU_RUN, best.name, best._eff_ipl)
        remaining = self._remaining[best]
        self._completion = self.sim.schedule(
            remaining, self._complete, best, label=best._work_label
        )

    def _complete(self, task: CpuTask) -> None:
        if task is not self._current:  # pragma: no cover - defensive
            raise ProcessError("completion for non-current task %s" % task.name)
        self._completion = None
        elapsed = self.sim.now - self._chunk_started
        task.cycles_used += ns_to_cycles(elapsed, self.hz)
        self.busy_ns += elapsed
        if elapsed > 0:
            for observer in self.account_observers:
                observer(task, elapsed)
        self._current = None
        del self._remaining[task]
        was_ipl = task._eff_ipl
        # Resume the task's generator; it may queue more work (for itself
        # or, via side effects, for others) before we pick the next task.
        task.deliver(None)
        self._reschedule()
        current = self._current
        if was_ipl > (current._eff_ipl if current is not None else IPL_NONE):
            self._notify_ipl()

    def _notify_ipl(self) -> None:
        ipl = self.current_ipl
        for observer in self.ipl_observers:
            observer(ipl)

    # ------------------------------------------------------------------

    def utilization(self, since_ns: int, now_ns: Optional[int] = None) -> float:
        """Fraction of wall time busy since ``since_ns`` (coarse; callers
        should snapshot ``busy_ns`` themselves for windowed measures)."""
        now = self.sim.now if now_ns is None else now_ns
        window = now - since_ns
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_ns / window)

    def __repr__(self) -> str:
        running = self._current.name if self._current else "idle"
        return "CPU(%s, running=%s, ipl=%d)" % (self.name, running, self.current_ipl)
