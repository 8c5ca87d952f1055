"""Common driver structure shared by the classic and modified drivers.

A driver binds one NIC to the kernel: it owns the interface's output
queue (``ifqueue`` in fig 6-2), its RX/TX interrupt lines, and the entry
points the IP layer uses to emit packets on that interface.
"""

from __future__ import annotations

from typing import Optional

from ..hw.cpu import IPL_DEVICE
from ..hw.nic import NIC
from ..kernel.kernel import Kernel
from ..kernel.queues import PacketQueue, REDQueue
from ..net.ip import IPLayer
from ..net.packet import Packet
from ..sim.process import Work

#: ``drain(quota=LIVE_QUOTA)`` re-reads ``owner.quota`` before every
#: packet: the mitigation controller retunes the clocked driver's quota
#: from a clock callout, which can land mid-drain.
LIVE_QUOTA = object()


def drain(
    owner,
    pull,
    work: Work,
    counter=None,
    quota=None,
    polling=None,
    acknowledge=None,
    batch: bool = False,
):
    """Process received packets to completion, one at a time.

    The one per-packet loop of every receive context: the polling
    thread's RX callback, the NAPI, clocked and netisr threads, the
    high-IPL handler and the softirq. Each packet is taken from
    ``pull``, parked in ``owner.in_flight`` while this frame holds it
    (teardown recovers it from there), charged ``work``, counted on
    ``counter`` and run through ``owner.ip.input_packet``.

    The drain ends when ``pull`` runs dry or a stop test fires. Both
    stop tests are re-checked before every packet:

    * ``quota`` bounds the packets handled (None: no bound), or is
      :data:`LIVE_QUOTA`;
    * ``polling``: stop as soon as its input is inhibited (by feedback,
      the cycle limit or mitigation, possibly mid-drain).

    ``acknowledge`` runs before every pull. With ``batch``, ``pull`` is
    ``rx_pull_many``: one call takes up to the quota, and the batch
    (oldest last) stays in ``in_flight`` until it is consumed. Returns
    the number of packets handled.
    """
    input_packet = owner.ip.input_packet
    handled = 0
    if batch:
        packets = pull(owner.quota if quota is LIVE_QUOTA else quota)
        packets.reverse()
        owner.in_flight = packets
        while packets:
            packet = packets[-1]
            yield work
            counter.increment()
            yield from input_packet(packet)
            packets.pop()
            handled += 1
        owner.in_flight = None
        return handled
    while True:
        limit = owner.quota if quota is LIVE_QUOTA else quota
        if limit is not None and handled >= limit:
            break
        if polling is not None and not polling.input_allowed:
            break
        if acknowledge is not None:
            acknowledge()
        packet = pull()
        if packet is None:
            break
        owner.in_flight = packet
        yield work
        if counter is not None:
            counter.increment()
        yield from input_packet(packet)
        owner.in_flight = None
        handled += 1
    return handled


class Driver:
    """Base class: interface naming, ifqueue, and shared bookkeeping."""

    def __init__(
        self,
        kernel: Kernel,
        nic: NIC,
        ip_layer: IPLayer,
        name: str,
        tx_ipl: int = IPL_DEVICE,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.ip = ip_layer
        self.name = name
        self.tx_ipl = tx_ipl
        self.costs = kernel.costs
        config = kernel.config
        if config.output_queue_policy == "red":
            self.ifqueue: PacketQueue = REDQueue(
                "%s.ifqueue" % name,
                config.ifqueue_limit,
                kernel.streams.stream("red:%s" % name),
                kernel.probes,
                min_fraction=config.red_min_fraction,
                max_fraction=config.red_max_fraction,
                max_probability=config.red_max_probability,
                weight=config.red_weight,
            )
        else:
            self.ifqueue = PacketQueue(
                "%s.ifqueue" % name, config.ifqueue_limit, kernel.probes
            )
        #: The packet currently held by this driver's suspended receive
        #: frame (pulled from the ring, not yet handed to a queue). The
        #: teardown path reads it so a mid-flight abort cannot leak a
        #: pooled packet inside a generator frame.
        self.in_flight = None
        #: Trace hook (:class:`repro.trace.TraceBuffer`), bound by
        #: ``Router.attach_trace``; None on the untraced fast path.
        self.trace = None
        self.rx_packets_processed = kernel.probes.counter(
            "driver.%s.rx_processed" % name
        )
        self.tx_packets_started = kernel.probes.counter(
            "driver.%s.tx_started" % name
        )
        # Shared per-packet Work commands for the TX service loop (the
        # CPU model only reads ``.cycles``, so reuse is safe).
        self._tx_start_work = Work(self.costs.tx_start_per_packet)

    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Create interrupt lines / threads and register with the kernel.

        Subclasses implement; must be called exactly once after the
        router wiring is complete.
        """
        raise NotImplementedError

    def output(self, packet: Packet) -> None:
        """IP-layer output hook: queue ``packet`` for transmission on
        this interface. Subclasses arrange for the TX path to run."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared TX service path (generator: charges CPU as it works)
    # ------------------------------------------------------------------

    def _tx_service(self, quota: Optional[int] = None):
        """Release completed TX descriptors, then move up to ``quota``
        packets from the ifqueue into free descriptors. Returns the
        number of packets newly handed to the hardware.

        This is the work whose starvation the paper describes in §4.4:
        if this code never runs, completed descriptors are never
        released and the transmitter idles with a full ring.
        """
        done = self.nic.tx_done_slots()
        if done:
            yield Work(self.costs.tx_reclaim_per_packet * done)
            self.nic.tx_reclaim()
        moved = 0
        while (
            (quota is None or moved < quota)
            and self.nic.tx_free_slots() > 0
            and not self.ifqueue.empty
        ):
            yield self._tx_start_work
            packet = self.ifqueue.dequeue()
            if packet is None:  # pragma: no cover - guarded by loop condition
                break
            self.nic.tx_enqueue(packet)
            self.tx_packets_started.increment()
            moved += 1
        return moved

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)
