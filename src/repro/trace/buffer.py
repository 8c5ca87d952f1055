"""Bounded ring buffer of scheduling-level trace records.

The paper's argument is a *scheduling narrative*: which interrupt
preempted whom, when the polling quota ran out, where a packet died.
:class:`TraceBuffer` captures that narrative as a stream of small typed
records emitted from the load-bearing seams of the simulation — IRQ
request/dispatch/return, CPU dispatch and accounting, NIC ring
accept/overflow, queue enqueue/drop, quota exhaustion, input
inhibit/allow flips, and packet inject/deliver lifecycle events.

Cost model (the same discipline as the fault seams, ``repro.faults``):

* **Disarmed** (the default): every instrumented component carries a
  ``trace`` attribute that is ``None``; each hook is a single attribute
  load plus an ``is None`` test.
* **Armed**: one preallocated Python list of ``capacity`` slots, reused
  as a ring — tracing a trial never grows memory with trial length.
  Each record is a 5-tuple ``(t_ns, kind, site_id, a, b)``; site names
  (queue/line/interface names, inhibit reasons, task names) are interned
  to small integers on first use. :meth:`TraceBuffer.record` is the one
  record path of both backends — the compiled packet path calls it from
  its C bodies — and it also folds the record into the attached
  :class:`~repro.trace.timeline.Timeline`, so an armed hook costs one
  call.

Tracing schedules **no simulator events** and draws **no randomness**,
so a traced trial's event stream — and therefore every TrialResult
field except ``timeline`` — is bit-identical to the untraced run.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Default ring capacity (records). 64k records cover roughly the last
#: half-second of a saturated 12k-pps trial; older records are
#: overwritten, which is the point — the interesting part of a livelock
#: is its most recent history.
DEFAULT_CAPACITY = 65_536

# ---------------------------------------------------------------------------
# Record kinds. Small ints, stable across a session; names via KIND_NAMES.
# ---------------------------------------------------------------------------

IRQ_REQUEST = 1  #: device raised its interrupt line      (site=line)
IRQ_DISPATCH = 2  #: controller started the handler       (site=line, a=ipl)
IRQ_RETURN = 3  #: handler completed                      (site=line)
CPU_RUN = 4  #: dispatcher installed a new task           (site=task, a=eff ipl)
CPU_IDLE = 5  #: dispatcher found nothing runnable
CPU_ACCOUNT = 6  #: task charged for a chunk               (site=task, a=ns, b=ipl)
RX_ACCEPT = 7  #: frame accepted into the RX ring          (site=nic)
RX_OVERFLOW = 8  #: frame dropped at a full RX ring        (site=nic, a=age, b=born)
TX_COMPLETE = 9  #: frame left on the output wire          (site=nic)
TX_RECLAIM = 10  #: driver released TX descriptors         (site=nic, a=count)
Q_ENQUEUE = 11  #: packet queued                           (site=queue, a=depth)
Q_DROP = 12  #: packet dropped at a full queue             (site=queue, a=age, b=born)
QUOTA_EXHAUST = 13  #: rx service ended with backlog       (site=driver, a=handled, b=pending)
INPUT_INHIBIT = 14  #: input processing inhibited          (site=reason)
INPUT_ALLOW = 15  #: input processing re-enabled           (site=reason)
FEEDBACK_TIMEOUT = 16  #: feedback failsafe re-enabled input (site=reason)
CYCLE_LIMIT = 17  #: cycle limiter crossed its threshold   (site=reason, a=used)
CYCLE_RESET = 18  #: cycle limiter window reset            (site=reason)
PKT_INJECT = 19  #: generator emitted a packet             (site=generator, a=seq)
PKT_DELIVER = 20  #: packet transmitted on the output wire (site=nic, a=latency, b=born)
MITIGATE_UP = 21  #: mitigation controller escalated       (site=controller, a=level)
MITIGATE_DOWN = 22  #: mitigation controller de-escalated  (site=controller, a=level)

#: kind -> human-readable name (exporters, CSV, watchdog excerpts).
KIND_NAMES = {
    IRQ_REQUEST: "irq_request",
    IRQ_DISPATCH: "irq_dispatch",
    IRQ_RETURN: "irq_return",
    CPU_RUN: "cpu_run",
    CPU_IDLE: "cpu_idle",
    CPU_ACCOUNT: "cpu_account",
    RX_ACCEPT: "rx_accept",
    RX_OVERFLOW: "rx_overflow",
    TX_COMPLETE: "tx_complete",
    TX_RECLAIM: "tx_reclaim",
    Q_ENQUEUE: "q_enqueue",
    Q_DROP: "q_drop",
    QUOTA_EXHAUST: "quota_exhaust",
    INPUT_INHIBIT: "input_inhibit",
    INPUT_ALLOW: "input_allow",
    FEEDBACK_TIMEOUT: "feedback_timeout",
    CYCLE_LIMIT: "cycle_limit",
    CYCLE_RESET: "cycle_reset",
    PKT_INJECT: "pkt_inject",
    PKT_DELIVER: "pkt_deliver",
    MITIGATE_UP: "mitigate_up",
    MITIGATE_DOWN: "mitigate_down",
}


class TraceBuffer:
    """Preallocated ring of ``(t_ns, kind, site_id, a, b)`` records.

    The buffer is bound to a simulator clock (``bind``) when the router
    attaches it; components then call :meth:`record` from their hooks.
    An optional :class:`~repro.trace.timeline.Timeline` attached via
    :meth:`attach_timeline` folds every record *before* ring overwrite,
    so windowed aggregates stay exact over the whole trial even when the
    ring only retains the tail.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, sim=None) -> None:
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._ring: List[Optional[Tuple[int, int, int, int, int]]] = (
            [None] * capacity
        )
        self._next = 0
        #: Total records ever emitted (``recorded - capacity`` of them
        #: have been overwritten once this exceeds ``capacity``).
        self.recorded = 0
        self._sites = {}
        self._site_names: List[str] = []
        self._sim = sim
        self._timeline = None
        self._series = None

    # ------------------------------------------------------------------

    def bind(self, sim) -> "TraceBuffer":
        """Bind the simulator whose clock timestamps the records."""
        if self._sim is not None and self._sim is not sim:
            raise RuntimeError("trace buffer already bound to a simulator")
        self._sim = sim
        return self

    def attach_timeline(self, timeline) -> "TraceBuffer":
        """Fold every subsequent record into ``timeline`` as well."""
        self._timeline = timeline
        # Kept on the buffer: record() reads it per record, and an
        # instance attribute is a cheaper lookup than a class attribute.
        self._series = timeline.SERIES
        return self

    @property
    def timeline(self):
        return self._timeline

    # ------------------------------------------------------------------
    # Hot path (armed only — disarmed components never reach here)
    # ------------------------------------------------------------------

    def record(self, kind: int, site: str, a: int = 0, b: int = 0) -> None:
        """Append one record, overwriting the oldest once full, and fold
        it into the timeline's window (the one implementation of the
        fold; see :mod:`repro.trace.timeline` for the series)."""
        sites = self._sites
        sid = sites.get(site)
        if sid is None:
            sid = sites[site] = len(sites)
            self._site_names.append(site)
        t = self._sim.now
        index = self._next
        self._ring[index] = (t, kind, sid, a, b)
        index += 1
        self._next = 0 if index == self.capacity else index
        self.recorded += 1
        timeline = self._timeline
        if timeline is None:
            return
        index = t // timeline.window_ns
        if index == timeline.current_index:
            window = timeline.current
        else:
            window = timeline.open_window(index)
        series = self._series[kind]
        if series is None:
            if kind == CPU_ACCOUNT:
                ipl = str(b)
                cpu = window["cpu_ns"]
                cpu[ipl] = cpu.get(ipl, 0) + a
            return
        window[series] += 1
        if kind == PKT_DELIVER:
            window["latency_ns_sum"] += a
        elif kind == Q_DROP or kind == RX_OVERFLOW:
            drops = window["drops"]
            drops[site] = drops.get(site, 0) + 1

    def packet_drop(self, kind: int, site: str, packet) -> None:
        """Record a drop, linking packet age (latency-to-drop) when the
        dropped item carries lifecycle timestamps."""
        born = getattr(packet, "created_ns", None)
        if born is None:
            self.record(kind, site)
        else:
            self.record(kind, site, self._sim.now - born, born)

    def packet_deliver(self, site: str, packet) -> None:
        """Record a delivery with its wire-to-wire latency."""
        born = packet.created_ns
        self.record(PKT_DELIVER, site, self._sim.now - born, born)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    @property
    def overwritten(self) -> int:
        """Records lost to ring wrap-around."""
        return max(0, self.recorded - self.capacity)

    def site_name(self, sid: int) -> str:
        return self._site_names[sid]

    @property
    def site_names(self) -> List[str]:
        """Interned site names, indexed by site id."""
        return list(self._site_names)

    def records(self) -> List[Tuple[int, int, int, int, int]]:
        """Retained records in chronological order (oldest first)."""
        if self.recorded <= self.capacity:
            return self._ring[: self._next]
        return self._ring[self._next :] + self._ring[: self._next]

    def tail(self, n: int) -> List[Tuple[int, int, int, int, int]]:
        """The most recent ``n`` retained records, chronological."""
        records = self.records()
        return records[-n:] if n < len(records) else records

    def export_tail(self, n: int) -> List[List]:
        """JSON-safe tail: ``[t_ns, kind_name, site, a, b]`` rows. Used
        by the watchdog to embed an onset excerpt in its verdict."""
        names = self._site_names
        return [
            [t, KIND_NAMES.get(kind, str(kind)), names[sid], a, b]
            for t, kind, sid, a, b in self.tail(n)
        ]

    def __repr__(self) -> str:
        return "TraceBuffer(recorded=%d, capacity=%d, sites=%d)" % (
            self.recorded,
            self.capacity,
            len(self._site_names),
        )
