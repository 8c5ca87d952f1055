"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock (integer nanoseconds) and a
two-level calendar queue of :class:`~repro.sim.events.Event` objects.
Components schedule callbacks at relative delays; :meth:`run` drains the
queue in time order until a deadline or until no events remain.

The simulator itself knows nothing about CPUs, packets, or kernels — those
are layered on top (see :mod:`repro.hw` and :mod:`repro.kernel`). It only
guarantees:

* the clock never moves backwards (:class:`~repro.sim.errors.ClockError`);
* events scheduled for the same instant fire in scheduling order;
* cancellation is O(1) and safe at any time before the event fires.

Structure (this module is the hot path of every experiment):

* **Timing wheel** — near-term events land in one of ``WHEEL_SLOTS``
  fixed-width buckets indexed by ``(time - wheel_base) >> WHEEL_SHIFT``.
  A bucket is a plain list of ``(time, seq, event)`` triples in append
  order; scheduling into the wheel is a list append plus a bitmap OR,
  with no comparisons at all.
* **Current-slot heap** (``_cur``) — when the drain reaches a bucket, its
  pending triples are heapified once and popped in ``(time, seq)`` order.
  Because the triples lead with ints, every heap comparison resolves in
  C; ``Event.__lt__`` is never called on this path. Events scheduled
  into the slot being drained (``delay=0`` chains, same-instant wakeups)
  are pushed straight into this heap, preserving exact FIFO seq order.
* **Overflow heap** — events beyond the wheel horizon
  (``WHEEL_SLOTS << WHEEL_SHIFT`` ns, ~17 ms) wait in a small fallback
  heap. When the wheel empties, the window *jumps* to the earliest
  overflow event (no empty-slot traversal) and the overflow refills the
  buckets it now covers.
* **Occupancy bitmap** (``_occ``) — one int whose bit *i* marks bucket
  *i* non-empty; the drain finds the next populated bucket with a
  lowest-set-bit scan instead of walking empty slots.
* **Determinism** — buckets partition time into disjoint windows visited
  in order, and within a bucket the heap yields exact ``(time, seq)``
  order, so the global firing order is identical to a single binary
  heap's. Trial results are bit-identical to the old ``heapq`` core
  (proven against the committed golden fixture, which predates the
  wheel).
* **Tombstones** — cancelled events are skipped when the drain reaches
  them (bucket load, heap pop, or overflow refill). The queue is also
  *compacted in place* whenever tombstones outnumber live events, so
  cancellation-heavy workloads — including events cancelled long before
  their fire time — cannot grow resident memory without bound.
* **Event slab** — fired and reclaimed events whose only remaining
  reference is the scheduler's are recycled through an
  :class:`~repro.sim.events.EventSlab` freelist, so the steady-state hot
  loop allocates zero Event objects. The ``sys.getrefcount`` gate means
  any event whose handle a client kept (periodic timers, cancellable
  completions) is simply left to the garbage collector instead.
* recurring work should use :meth:`schedule_periodic`, which re-arms one
  :class:`Event` object per timer instead of allocating a fresh event
  every tick. The callback runs once per ``interval_ns`` until the
  returned :class:`PeriodicEvent` handle is cancelled (either via
  ``handle.cancel()`` or ``Simulator.cancel(handle)``, safe even from
  inside the callback itself).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from ._drain import drain_plain, drain_sanitized
from .errors import ClockError, SchedulingError
from .events import CANCELLED, FIRED, PENDING, Event, EventSlab

#: Bucket width is ``1 << WHEEL_SHIFT`` ns (65.5 µs). Deliberately
#: coarse: a bucket load costs a filter pass plus a heapify, so it must
#: amortize over several events. Near-term events (the same-bucket
#: majority at paper rates) bypass the wheel entirely and go straight to
#: the current-slot heap, where every comparison is a C int-tuple
#: compare — the wheel only has to beat the old heap on *far* inserts,
#: which it does at any bucket width.
WHEEL_SHIFT = 16

#: Number of wheel buckets; horizon = ``WHEEL_SLOTS << WHEEL_SHIFT``
#: (~16.8 ms) comfortably covers clock ticks, watchdog windows, DMA
#: latencies and quota timers, so overflow traffic is rare.
WHEEL_SLOTS = 256

_WHEEL_HORIZON = WHEEL_SLOTS << WHEEL_SHIFT

_INF = float("inf")

#: Compaction is skipped below this resident size: tiny queues are cheap
#: to scan and rebuilding them constantly would cost more than it saves.
_COMPACT_MIN_HEAP = 64


class PeriodicEvent:
    """Handle for a recurring timer created by ``schedule_periodic``.

    One underlying :class:`Event` object is re-armed for every firing, so
    a periodic tick allocates nothing per period. Treat the handle as
    opaque: the only useful client operation is :meth:`cancel` (or,
    equivalently, passing the handle to ``Simulator.cancel``).
    """

    __slots__ = ("interval_ns", "fires", "_sim", "_event", "_active")

    def __init__(self, sim: "Simulator", interval_ns: int) -> None:
        self._sim = sim
        self._event: Optional[Event] = None
        self._active = True
        self.interval_ns = interval_ns
        self.fires = 0

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> bool:
        """Stop the timer. Safe from inside its own callback. Returns
        True if it was still active."""
        if not self._active:
            return False
        self._active = False
        event = self._event
        if event is not None and event.state == PENDING:
            # Cancel through the simulator so tombstone/pending counters
            # stay exact.
            self._sim.cancel(event)
        return True

    def __repr__(self) -> str:
        return "PeriodicEvent(every %d ns, fires=%d, %s)" % (
            self.interval_ns,
            self.fires,
            "active" if self._active else "cancelled",
        )


class Simulator:
    """Event loop and virtual clock for one simulation run."""

    #: Which core this is, for attribution (stats, ``TrialResult``,
    #: Perfetto metadata). The compiled core reports ``fast-c``; see
    #: repro.sim.backend.
    backend_name = "pure"

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running: bool = False
        self._fired: int = 0
        self._cancelled: int = 0
        # The pending-event count is not stored: every schedule bumps
        # _seq and every fire/cancel bumps its counter exactly once, so
        # pending == _seq - _fired - _cancelled at all times and the hot
        # paths keep one less counter.
        #: Number of CANCELLED events still resident in the queue.
        self._tombstones: int = 0
        self._compactions: int = 0
        # --- calendar queue -------------------------------------------
        #: Heap of (time, seq, event) triples for the bucket currently
        #: being drained (plus any events scheduled at/behind it).
        self._cur: List[Tuple[int, int, Event]] = []
        #: Fixed ring of buckets; each is an append-ordered triple list.
        self._wheel: List[List[Tuple[int, int, Event]]] = [
            [] for _ in range(WHEEL_SLOTS)
        ]
        #: Heap of triples beyond the wheel horizon.
        self._overflow: List[Tuple[int, int, Event]] = []
        #: Bitmap of non-empty buckets (bit i => bucket i occupied).
        self._occ: int = 0
        #: Triples resident in wheel buckets (tombstones included).
        self._wheel_count: int = 0
        #: Index of the bucket loaded into ``_cur``; -1 before the first
        #: bucket of the current window is reached. ``schedule`` pushes
        #: events that map at or behind the cursor straight into ``_cur``
        #: (they can only be at/after ``now``, and ``_cur`` is always
        #: drained before the cursor advances, so ordering is preserved).
        self._cursor: int = -1
        #: Absolute time of bucket 0's window start.
        self._wheel_base: int = 0
        #: Freelist of retired Event objects (see module docstring).
        self._slab: EventSlab = EventSlab()
        #: Optional invariant-sanitizer hook: ``(callable, every_n)``.
        #: When set, :meth:`run` switches to an instrumented drain loop
        #: that invokes the callable every ``every_n`` fired events; when
        #: None the original loop runs, so a sanitizer-free simulation
        #: pays nothing (checked once per ``run`` call, not per event).
        self._sanitize_hook: Optional[Callable[[], None]] = None
        self._sanitize_every: int = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: int,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now.

        ``delay`` may be zero (the event fires after all events already
        scheduled for the current instant), but never negative.
        """
        if delay < 0:
            raise SchedulingError("cannot schedule into the past (delay=%d)" % delay)
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        # Inlined slab acquire: recycle a retired Event if one is free.
        slab = self._slab
        free = slab._free
        if free:
            event = free.pop()
            slab.reused += 1
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.state = PENDING
            event.label = label
        else:
            slab.allocated += 1
            event = Event(time, seq, callback, args, label=label)
        # Inlined queue insert (the same three-way dispatch appears in
        # the periodic fire closure; keep the two in step).
        idx = (time - self._wheel_base) >> WHEEL_SHIFT
        if idx <= self._cursor:
            heappush(self._cur, (time, seq, event))
        elif idx < WHEEL_SLOTS:
            self._wheel[idx].append((time, seq, event))
            self._occ |= 1 << idx
            self._wheel_count += 1
        else:
            heappush(self._overflow, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns."""
        if time < self._now:
            raise SchedulingError(
                "cannot schedule at t=%d, now is t=%d" % (time, self._now)
            )
        return self.schedule(time - self._now, callback, *args, label=label)

    def schedule_periodic(
        self,
        interval_ns: int,
        callback: Callable[..., Any],
        *args: Any,
        label: Optional[str] = None,
        first_delay: Optional[int] = None,
    ) -> PeriodicEvent:
        """Run ``callback(*args)`` every ``interval_ns`` until cancelled.

        The first firing is ``first_delay`` ns from now (default: one
        interval). One :class:`Event` object is re-armed for every firing,
        so clock/poll ticks do not allocate per period. Returns a
        :class:`PeriodicEvent` handle whose :meth:`~PeriodicEvent.cancel`
        is safe at any time, including from inside the callback.
        """
        if interval_ns <= 0:
            raise SchedulingError(
                "periodic interval must be positive, got %d" % interval_ns
            )
        if first_delay is not None and first_delay < 0:
            raise SchedulingError(
                "cannot schedule into the past (first_delay=%d)" % first_delay
            )
        handle = PeriodicEvent(self, interval_ns)

        def fire() -> None:
            handle.fires += 1
            callback(*args)
            if not handle._active:
                return
            # Re-arm and re-queue inline (Event._rearm + _insert fused):
            # a periodic tick is pure per-period overhead, so it must not
            # pay Python-call costs on top of the callback's own.
            event = handle._event
            time = event.time + interval_ns
            seq = self._seq
            self._seq = seq + 1
            event.time = time
            event.seq = seq
            event.state = PENDING
            idx = (time - self._wheel_base) >> WHEEL_SHIFT
            if idx <= self._cursor:
                heappush(self._cur, (time, seq, event))
            elif idx < WHEEL_SLOTS:
                self._wheel[idx].append((time, seq, event))
                self._occ |= 1 << idx
                self._wheel_count += 1
            else:
                heappush(self._overflow, (time, seq, event))

        delay = interval_ns if first_delay is None else first_delay
        handle._event = self.schedule(delay, fire, label=label)
        return handle

    def cancel(self, event) -> bool:
        """Cancel a pending event (or a :class:`PeriodicEvent` handle).
        Returns True if it was still pending/active."""
        if isinstance(event, PeriodicEvent):
            return event.cancel()
        if event.state != PENDING:
            return False
        event.state = CANCELLED
        self._cancelled += 1
        # Inlined compaction trigger. Resident triples are exactly
        # pending events (each queued once) plus tombstones, and pending
        # is itself counter arithmetic, so the trigger is four int ops —
        # the len() sums this used to compute per cancel were the
        # bottleneck of a 200k-cancel storm.
        tombs = self._tombstones + 1
        self._tombstones = tombs
        total = self._seq - self._fired - self._cancelled + tombs
        if total >= _COMPACT_MIN_HEAP and tombs * 2 > total:
            self._compact()
        return True

    # ------------------------------------------------------------------
    # Tombstone reclamation
    # ------------------------------------------------------------------

    def _compact(self) -> None:
        """Filter tombstones out of the queue once they dominate it.

        Drain-time skipping only reclaims a cancelled event when the
        clock reaches its bucket; an event cancelled long before then
        would otherwise occupy queue slots indefinitely. ``cancel``
        triggers this when tombstones exceed half the resident triples,
        which bounds memory at ~2x the live event count while keeping
        cancellation amortised O(1).

        All three structures are filtered *in place* (slice assignment)
        because the drain loop holds local references to them.
        """
        cur = self._cur
        cur[:] = [tr for tr in cur if tr[2].state != CANCELLED]
        heapify(cur)
        overflow = self._overflow
        overflow[:] = [tr for tr in overflow if tr[2].state != CANCELLED]
        heapify(overflow)
        occ = 0
        count = 0
        for idx, bucket in enumerate(self._wheel):
            if bucket:
                bucket[:] = [tr for tr in bucket if tr[2].state != CANCELLED]
                if bucket:
                    occ |= 1 << idx
                    count += len(bucket)
        self._occ = occ
        self._wheel_count = count
        # Dropped events go to the GC, not the slab: list comprehensions
        # hold transient references, so the refcount gate can't prove
        # exclusivity here, and compaction is far off the hot path.
        self._tombstones = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Queue traversal
    # ------------------------------------------------------------------

    def _advance(self, deadline) -> bool:
        """Load the next populated bucket (time <= ``deadline``) into
        ``_cur``. Returns False when every remaining event — if any — is
        beyond the deadline. Precondition: ``_cur`` is empty.
        """
        wheel = self._wheel
        pop = heappop
        while True:
            base = self._wheel_base
            # Lowest-set-bit scan over buckets strictly after the cursor.
            mask = self._occ & -(1 << (self._cursor + 1))
            while mask:
                low = mask & -mask
                idx = low.bit_length() - 1
                bucket = wheel[idx]
                if not bucket:
                    # Stale bit (compaction emptied the bucket).
                    self._occ &= ~low
                    mask &= ~low
                    continue
                if base + (idx << WHEEL_SHIFT) > deadline:
                    # Every event in this and later buckets is later
                    # than the deadline; leave the bucket for next run.
                    return False
                # Zero-copy load: heapify the bucket list itself and hand
                # the drained (empty) ``_cur`` list back to the slot, so
                # a bucket load allocates nothing. Tombstones ride along
                # — the drain loop skips them on pop, which also lets the
                # refcount gate recycle them (a bulk filter here could
                # not: its transient references defeat the gate).
                wheel[idx] = self._cur
                self._wheel_count -= len(bucket)
                self._occ &= ~low
                self._cursor = idx
                heapify(bucket)
                self._cur = bucket
                return True
            # Wheel window exhausted: jump to the overflow's first event.
            overflow = self._overflow
            while overflow and overflow[0][2].state == CANCELLED:
                _, _, ev = pop(overflow)
                self._tombstones -= 1
                if getrefcount(ev) == 2:
                    self._slab.release(ev)
            if not overflow:
                return False
            t_min = overflow[0][0]
            if t_min > deadline:
                return False
            base = (t_min >> WHEEL_SHIFT) << WHEEL_SHIFT
            self._wheel_base = base
            self._cursor = -1
            limit = base + _WHEEL_HORIZON
            occ = 0
            count = 0
            while overflow and overflow[0][0] < limit:
                t, s, ev = pop(overflow)
                if ev.state == CANCELLED:
                    self._tombstones -= 1
                    if getrefcount(ev) == 2:
                        self._slab.release(ev)
                    continue
                idx = (t - base) >> WHEEL_SHIFT
                wheel[idx].append((t, s, ev))
                occ |= 1 << idx
                count += 1
            # The wheel was provably empty before the refill.
            self._occ = occ
            self._wheel_count = count
            # Loop: rescan the refilled window from slot 0.

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event. Returns False if none left."""
        pop = heappop
        while True:
            cur = self._cur
            while cur:
                head = cur[0]
                event = head[2]
                if event.state == CANCELLED:
                    pop(cur)
                    self._tombstones -= 1
                    del head
                    if getrefcount(event) == 2:
                        self._slab.release(event)
                    continue
                time = head[0]
                if time < self._now:
                    raise ClockError(
                        "event at t=%d behind clock t=%d" % (time, self._now)
                    )
                pop(cur)
                del head
                self._now = time
                event.state = FIRED
                self._fired += 1
                event.callback(*event.args)
                if getrefcount(event) == 2:
                    self._slab.release(event)
                return True
            if not self._advance(_INF):
                return False

    def peek_time(self) -> Optional[int]:
        """Time of the next pending event, or None if none remain."""
        pop = heappop
        cur = self._cur
        while cur:
            head = cur[0]
            if head[2].state != CANCELLED:
                return head[0]
            del head
            _, _, ev = pop(cur)
            self._tombstones -= 1
            if getrefcount(ev) == 2:
                self._slab.release(ev)
        mask = self._occ & -(1 << (self._cursor + 1))
        wheel = self._wheel
        while mask:
            idx = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            best = None
            for tr in wheel[idx]:
                if tr[2].state != CANCELLED and (best is None or tr[0] < best):
                    best = tr[0]
            if best is not None:
                return best
        overflow = self._overflow
        while overflow:
            head = overflow[0]
            if head[2].state != CANCELLED:
                return head[0]
            del head
            _, _, ev = pop(overflow)
            self._tombstones -= 1
            if getrefcount(ev) == 2:
                self._slab.release(ev)
        return None

    def run(self, until: Optional[int] = None) -> int:
        """Run until the clock reaches ``until`` ns (absolute), or until no
        events remain if ``until`` is None. Returns the final clock value.

        If a deadline is given the clock is advanced exactly to it, so
        back-to-back ``run`` calls tile the timeline without gaps.
        """
        if until is not None and until < self._now:
            raise SchedulingError(
                "deadline t=%d is in the past (now t=%d)" % (until, self._now)
            )
        # The drain loop and its sanitized twin live in repro.sim._drain.
        # A float +inf deadline lets one comparison cover the "no
        # deadline" case (ints compare fine against it).
        deadline = _INF if until is None else until
        self._running = True
        try:
            if self._sanitize_hook is not None:
                drain_sanitized(self, deadline)
            else:
                drain_plain(self, deadline)
        finally:
            self._running = False
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def set_sanitize_hook(self, hook: Callable[[], None], every_events: int) -> None:
        """Install an invariant-check hook invoked every ``every_events``
        fired events. Only the instrumented drain loop consults it, so a
        simulation without a hook runs the original loop unchanged."""
        if every_events <= 0:
            raise SchedulingError(
                "sanitize period must be positive, got %d" % every_events
            )
        self._sanitize_hook = hook
        self._sanitize_every = every_events

    def clear_sanitize_hook(self) -> None:
        self._sanitize_hook = None
        self._sanitize_every = 0

    def run_for(self, duration: int) -> int:
        """Run for ``duration`` ns of simulated time from the current clock."""
        return self.run(self._now + duration)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Counters describing scheduler activity (for tests/diagnostics).

        ``heap_size`` is the total number of resident triples (current
        slot + wheel buckets + overflow), i.e. the queue's memory
        footprint in events — the same meaning the key had when the core
        was a single binary heap.
        """
        slab = self._slab
        return {
            "backend": self.backend_name,
            "scheduled": self._seq,
            "fired": self._fired,
            "cancelled": self._cancelled,
            "pending": self._seq - self._fired - self._cancelled,
            "heap_size": (
                len(self._cur)
                + self._wheel_count
                + len(self._overflow)
            ),
            "compactions": self._compactions,
            "wheel_occupancy": bin(self._occ).count("1"),
            "wheel_events": self._wheel_count,
            "current_bucket": len(self._cur),
            "overflow_size": len(self._overflow),
            "slab_allocated": slab.allocated,
            "slab_reused": slab.reused,
            "slab_recycled": slab.recycled,
            "slab_free": len(slab._free),
            "slab_high_water": slab.high_water,
        }

    def __repr__(self) -> str:
        return (
            "%s(backend=%s, now=%d ns, pending=%d, wheel=%d slots/%d events, "
            "overflow=%d, slab_hw=%d)"
            % (
                type(self).__name__,
                self.backend_name,
                self._now,
                self._seq - self._fired - self._cancelled,
                bin(self._occ).count("1"),
                self._wheel_count,
                len(self._overflow),
                self._slab.high_water,
            )
        )
