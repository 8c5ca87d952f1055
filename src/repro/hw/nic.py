"""Network interface model with bounded RX/TX descriptor rings.

The NIC is the boundary where the paper's "drop early" argument lives
(§5.1, §6.4): packets that overflow the RX ring are dropped **before**
the host has invested any CPU cycles, while packets dropped later (at
ipintrq, the screening queue, or the output queue) waste everything spent
on them so far. The model therefore tracks overflow drops explicitly.

RX side
    The wire delivers packets into a bounded ring. Every arrival asserts
    the RX interrupt line; if the driver has disabled the line (the
    modified kernels do, §6.4), packets simply accumulate — "the
    interface's input buffer will soak up packets for a while".

TX side
    The driver occupies descriptor slots with :meth:`tx_enqueue`. The
    transmitter serialises one packet at a time at wire speed, marks its
    slot *done* and asserts the TX interrupt line — but the slot is only
    freed when the driver calls :meth:`tx_reclaim`. A driver that never
    gets to reclaim (transmit starvation, §4.4) idles the transmitter
    with a full ring even though packets are queued upstream.

Hot-path notes (every simulated packet crosses this module twice):

* the single transmitter completes descriptors strictly in FIFO order,
  so *done* slots are always a prefix of the ring — ``tx_done_slots`` is
  an integer read and ``tx_reclaim`` pops that prefix, instead of the
  historical scan / rebuild of a slot list per call;
* packet capability dispatch (``mark_nic_arrival`` / ``mark_transmitted``)
  is resolved by attempting the call and catching ``AttributeError``
  once for foreign objects, instead of a ``hasattr`` test per packet;
* counter bumps and ring operations are bound to instance locals at
  construction time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..sim.probes import ProbeRegistry
from ..sim.simulator import Simulator
from ..trace.buffer import RX_ACCEPT, RX_OVERFLOW, TX_COMPLETE, TX_RECLAIM
from .interrupts import InterruptLine
from .link import MIN_PACKET_TIME_NS


class NIC:
    """One network interface with RX and TX rings."""

    # Data lives in slots, which the compiled packet path reads by
    # offset; ``__dict__`` stays for the entry points it binds there.
    __slots__ = (
        "__dict__",
        "sim",
        "name",
        "probes",
        "rx_ring_capacity",
        "tx_ring_capacity",
        "tx_packet_time_ns",
        "_rx_ring",
        "_tx_ring",
        "_tx_done",
        "_tx_busy",
        "rx_line",
        "tx_line",
        "faults",
        "trace",
        "on_transmit",
        "rx_accepted",
        "rx_overflow_drops",
        "tx_completed",
        "_rx_append",
        "_rx_popleft",
        "_rx_accepted_inc",
        "_rx_overflow_inc",
        "_tx_completed_inc",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        probes: ProbeRegistry,
        rx_ring_capacity: int = 64,
        tx_ring_capacity: int = 32,
        tx_packet_time_ns: int = MIN_PACKET_TIME_NS,
    ) -> None:
        if rx_ring_capacity <= 0 or tx_ring_capacity <= 0:
            raise ValueError("ring capacities must be positive")
        self.sim = sim
        self.name = name
        self.probes = probes
        self.rx_ring_capacity = rx_ring_capacity
        self.tx_ring_capacity = tx_ring_capacity
        self.tx_packet_time_ns = tx_packet_time_ns

        self._rx_ring: Deque[Any] = deque()
        #: TX descriptor ring: FIFO of enqueued packets. The transmitter
        #: completes them in order, so the first ``_tx_done`` entries are
        #: always exactly the completed-but-unreclaimed descriptors.
        self._tx_ring: Deque[Any] = deque()
        self._tx_done = 0
        self._tx_busy = False

        #: Attached by the driver / kernel after construction (via
        #: :meth:`attach_lines`). On a multi-core machine the lines may
        #: live on any core's interrupt controller — the NIC only ever
        #: calls ``request()``, which is core-agnostic.
        self.rx_line: Optional[InterruptLine] = None
        self.tx_line: Optional[InterruptLine] = None
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`),
        #: set by an armed injector; None on the fault-free fast path.
        self.faults = None
        #: Trace hook (:class:`repro.trace.TraceBuffer`), bound by
        #: ``Router.attach_trace``; None on the untraced fast path.
        self.trace = None
        #: Invoked with each packet as its transmission completes; the
        #: experiment topology uses it to count "Opkts" and deliver to the
        #: destination. May be None for an unconnected interface.
        self.on_transmit: Optional[Callable[[Any], None]] = None

        self.rx_accepted = probes.counter("nic.%s.rx_accepted" % name)
        self.rx_overflow_drops = probes.counter("nic.%s.rx_overflow_drops" % name)
        self.tx_completed = probes.counter("nic.%s.tx_completed" % name)

        # Per-packet hot-path bindings.
        self._rx_append = self._rx_ring.append
        self._rx_popleft = self._rx_ring.popleft
        self._rx_accepted_inc = self.rx_accepted.increment
        self._rx_overflow_inc = self.rx_overflow_drops.increment
        self._tx_completed_inc = self.tx_completed.increment

    def attach_lines(
        self,
        rx_line: Optional[InterruptLine],
        tx_line: Optional[InterruptLine],
    ) -> None:
        """Bind the device's interrupt lines (the driver creates them,
        possibly on a steered core's controller)."""
        self.rx_line = rx_line
        self.tx_line = tx_line

    # ------------------------------------------------------------------
    # RX side (wire -> host)
    # ------------------------------------------------------------------

    def receive_from_wire(self, packet: Any) -> bool:
        """Deliver one packet from the wire. Returns False on overflow
        (or when an armed fault plan loses the frame)."""
        faults = self.faults
        if faults is not None and not faults.on_wire_frame(self, packet):
            return False  # frame lost before the ring; sender still owns it
        if len(self._rx_ring) >= self.rx_ring_capacity:
            self._rx_overflow_inc()
            trace = self.trace
            if trace is not None:
                trace.packet_drop(RX_OVERFLOW, self.name, packet)
            return False
        try:
            packet.mark_nic_arrival(self.sim.now)
        except AttributeError:
            pass  # foreign payload without lifecycle marks (tests)
        self._rx_append(packet)
        self._rx_accepted_inc()
        trace = self.trace
        if trace is not None:
            trace.record(RX_ACCEPT, self.name)
        rx_line = self.rx_line
        if rx_line is not None:
            rx_line.request()
        return True

    def rx_pending(self) -> int:
        """Packets waiting in the RX ring (0 during a DMA stall window:
        descriptors the DMA engine has not completed are invisible)."""
        faults = self.faults
        if faults is not None and faults.rx_stalled():
            return 0
        return len(self._rx_ring)

    def rx_pull(self) -> Optional[Any]:
        """Remove and return the oldest received packet, or None."""
        if self._rx_ring:
            faults = self.faults
            if faults is not None and faults.rx_stalled():
                return None  # DMA stall: descriptors not ready yet
            return self._rx_popleft()
        return None

    def rx_pull_many(self, limit: Optional[int] = None) -> List[Any]:
        """Remove and return up to ``limit`` oldest received packets
        (all pending when ``limit`` is None) in FIFO order.

        One call replaces ``limit`` ``rx_pull`` round-trips for the
        batching drivers. Note the visible semantic: the ring frees all
        the returned descriptors *now*, at a single simulated instant,
        where repeated ``rx_pull`` calls interleaved with processing
        free them one at a time — under overload that admits arrivals
        an incremental drain would have overflow-dropped. Batch pulling
        is therefore opt-in on the driver side
        (``KernelConfig.rx_batch_pull``).
        """
        ring = self._rx_ring
        count = len(ring)
        if count:
            faults = self.faults
            if faults is not None and faults.rx_stalled():
                return []  # DMA stall: descriptors not ready yet
        if limit is not None and limit < count:
            count = limit
        popleft = self._rx_popleft
        return [popleft() for _ in range(count)]

    # ------------------------------------------------------------------
    # TX side (host -> wire)
    # ------------------------------------------------------------------

    def tx_free_slots(self) -> int:
        return self.tx_ring_capacity - len(self._tx_ring)

    def tx_done_slots(self) -> int:
        return self._tx_done

    def tx_enqueue(self, packet: Any) -> bool:
        """Occupy a descriptor slot with ``packet``; False if ring full."""
        ring = self._tx_ring
        if len(ring) >= self.tx_ring_capacity:
            return False
        ring.append(packet)
        if not self._tx_busy:
            self._kick_transmitter()
        return True

    def tx_reclaim(self) -> int:
        """Free all *done* descriptor slots; returns how many were freed.

        Only the driver calls this; until it does, completed slots keep
        occupying the ring (the root of transmit starvation, §4.4).
        """
        freed = self._tx_done
        if freed:
            popleft = self._tx_ring.popleft
            for _ in range(freed):
                popleft()
            self._tx_done = 0
            trace = self.trace
            if trace is not None:
                trace.record(TX_RECLAIM, self.name, freed)
        return freed

    def _kick_transmitter(self) -> None:
        if self._tx_busy:
            return
        ring = self._tx_ring
        done = self._tx_done
        if done >= len(ring):
            return
        self._tx_busy = True
        delay = self.tx_packet_time_ns
        faults = self.faults
        if faults is not None:
            delay += faults.tx_extra_delay(self)
        self.sim.schedule(
            delay,
            self._transmit_complete,
            ring[done],
            label="tx:" + self.name,
        )

    def _transmit_complete(self, packet: Any) -> None:
        # ``packet`` is _tx_ring[_tx_done]: the descriptor that was the
        # first not-done slot when the transmitter started on it, and
        # still is — completions are FIFO and reclaim only removes the
        # done prefix before it.
        self._tx_done += 1
        self._tx_busy = False
        self._tx_completed_inc()
        trace = self.trace
        if trace is not None:
            trace.record(TX_COMPLETE, self.name)
        try:
            packet.mark_transmitted(self.sim.now)
        except AttributeError:
            pass  # foreign payload without lifecycle marks (tests)
        if self.on_transmit is not None:
            self.on_transmit(packet)
        if self.tx_line is not None:
            self.tx_line.request()
        self._kick_transmitter()

    @property
    def tx_idle(self) -> bool:
        return not self._tx_busy

    # ------------------------------------------------------------------
    # Teardown (abort path only — never runs during a live simulation)
    # ------------------------------------------------------------------

    def drain(self) -> List[Any]:
        """Remove and return every packet still held by the interface
        (RX ring plus *not-yet-completed* TX descriptors), bypassing any
        stall window. Completed-but-unreclaimed TX slots are excluded:
        their packets already went through ``on_transmit`` and left the
        ownership of this interface.

        Only the teardown path calls this, after the simulator has
        stopped for good: it invalidates the in-flight transmit event,
        so the simulation must not be resumed afterwards.
        """
        drained = list(self._rx_ring)
        drained.extend(list(self._tx_ring)[self._tx_done:])
        self._rx_ring.clear()
        self._tx_ring.clear()
        self._tx_done = 0
        self._tx_busy = False
        return drained

    def __repr__(self) -> str:
        return "NIC(%s, rx=%d/%d, tx=%d/%d)" % (
            self.name,
            len(self._rx_ring),
            self.rx_ring_capacity,
            len(self._tx_ring),
            self.tx_ring_capacity,
        )
