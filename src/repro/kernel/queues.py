"""Bounded drop-tail packet queues with watermark callbacks.

Every queue in the classic stack (``ipintrq``, per-interface output
queues, the screening queue) is a fixed-limit drop-tail queue (§4.1:
"typically they have fixed length limits... the system must drop the
packet"). The paper's queue-state feedback mechanism (§6.6.1) needs two
extra notions, provided here:

* **high / low watermarks** with callbacks, used to inhibit and re-enable
  input processing;
* **drop accounting**, split by queue, because a packet dropped late
  carries away all the CPU already invested in it (§4.2) — the
  wasted-work benches read these counters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..sim.probes import ProbeRegistry
from ..trace.buffer import Q_DROP, Q_ENQUEUE


class PacketQueue:
    """A bounded FIFO with drop-tail overflow and watermark callbacks."""

    # Data lives in slots, which the compiled packet path reads by
    # offset; ``__dict__`` stays for the entry points it binds there.
    __slots__ = (
        "__dict__",
        "name",
        "limit",
        "high_watermark",
        "low_watermark",
        "_items",
        "_probes",
        "_enqueued",
        "_dequeued",
        "_dropped",
        "on_high",
        "on_low",
        "trace",
        "enqueue_count",
        "dequeue_count",
        "drop_count",
        "max_depth",
    )

    def __init__(
        self,
        name: str,
        limit: int,
        probes: Optional[ProbeRegistry] = None,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
    ) -> None:
        if limit <= 0:
            raise ValueError("queue limit must be positive, got %d" % limit)
        if high_watermark is not None and not (0 < high_watermark <= limit):
            raise ValueError("high watermark must be in (0, limit]")
        if low_watermark is not None and high_watermark is not None:
            if low_watermark >= high_watermark:
                raise ValueError("low watermark must be below high watermark")
        self.name = name
        self.limit = limit
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._items: Deque[Any] = deque()
        self._probes = probes
        if probes is not None:
            self._enqueued = probes.counter("queue.%s.enqueued" % name)
            self._dequeued = probes.counter("queue.%s.dequeued" % name)
            self._dropped = probes.counter("queue.%s.dropped" % name)
        else:
            self._enqueued = self._dequeued = self._dropped = None
        self.on_high: List[Callable[["PacketQueue"], None]] = []
        self.on_low: List[Callable[["PacketQueue"], None]] = []
        #: Trace hook (:class:`repro.trace.TraceBuffer`), bound by
        #: ``Router.attach_trace``; None on the untraced fast path.
        self.trace = None
        self.enqueue_count = 0
        self.dequeue_count = 0
        self.drop_count = 0
        self.max_depth = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.limit

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def above_high(self) -> bool:
        return self.high_watermark is not None and len(self._items) >= self.high_watermark

    @property
    def below_low(self) -> bool:
        return self.low_watermark is not None and len(self._items) <= self.low_watermark

    # ------------------------------------------------------------------

    def enqueue(self, item: Any) -> bool:
        """Append ``item``; drop it (returning False) if the queue is full.

        The high-watermark callbacks fire on **every** enqueue attempt
        (successful or not) that leaves the queue at or above the high
        watermark — a level check, not an edge. The feedback mechanism
        needs this: after its failsafe timeout re-enables input with the
        queue still congested, the very next enqueue must re-inhibit
        (§6.6.1: "detect when the screening queue becomes full").
        Subscribers must therefore be idempotent.
        """
        if self.full:
            self.drop_count += 1
            if self._dropped is not None:
                self._dropped.increment()
            if hasattr(item, "mark_dropped"):
                item.mark_dropped(self.name)
            trace = self.trace
            if trace is not None:
                trace.packet_drop(Q_DROP, self.name, item)
            self._fire_high_if_needed()
            return False
        self._items.append(item)
        self.enqueue_count += 1
        if self._enqueued is not None:
            self._enqueued.increment()
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)
        trace = self.trace
        if trace is not None:
            trace.record(Q_ENQUEUE, self.name, len(self._items))
        self._fire_high_if_needed()
        return True

    def _fire_high_if_needed(self) -> None:
        if self.high_watermark is not None and len(self._items) >= self.high_watermark:
            for callback in self.on_high:
                callback(self)

    def dequeue(self) -> Optional[Any]:
        """Remove and return the head item, or None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self.dequeue_count += 1
        if self._dequeued is not None:
            self._dequeued.increment()
        if self.low_watermark is not None and len(self._items) == self.low_watermark:
            for callback in self.on_low:
                callback(self)
        return item

    def peek(self) -> Optional[Any]:
        return self._items[0] if self._items else None

    def drain(self) -> List[Any]:
        """Remove and return all queued items *without* counting them as
        drops or dequeues. Teardown-only: the packets were neither lost
        nor serviced — the trial simply ended around them — so the drop
        accounting the wasted-work benches read must not move."""
        items = list(self._items)
        self._items.clear()
        return items

    def clear(self) -> int:
        """Discard all queued items (counts them as drops)."""
        discarded = len(self._items)
        for item in self._items:
            if hasattr(item, "mark_dropped"):
                item.mark_dropped(self.name)
        self.drop_count += discarded
        if self._dropped is not None:
            self._dropped.increment(discarded)
        self._items.clear()
        return discarded

    def __repr__(self) -> str:
        return "PacketQueue(%s, %d/%d, dropped=%d)" % (
            self.name,
            len(self._items),
            self.limit,
            self.drop_count,
        )


class REDQueue(PacketQueue):
    """Random Early Detection drop policy (Floyd & Jacobson 1993).

    The paper keeps drop-tail and notes that "other policies might
    provide better results [3]" (§8); this queue is that ablation. A
    weighted moving average of the occupancy drives probabilistic early
    drops between ``min_threshold`` and ``max_threshold``; above
    ``max_threshold`` every arrival is dropped. Early drops keep the
    standing queue (and therefore queueing delay) short under sustained
    overload, at the cost of dropping packets the queue could still have
    held.
    """

    __slots__ = (
        "_rng",
        "min_threshold",
        "max_threshold",
        "max_probability",
        "weight",
        "average",
        "early_drops",
        "_since_last_drop",
    )

    def __init__(
        self,
        name: str,
        limit: int,
        rng,
        probes: Optional["ProbeRegistry"] = None,
        min_fraction: float = 0.25,
        max_fraction: float = 0.75,
        max_probability: float = 0.1,
        weight: float = 0.2,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
    ) -> None:
        super().__init__(
            name,
            limit,
            probes,
            high_watermark=high_watermark,
            low_watermark=low_watermark,
        )
        if not 0.0 < min_fraction < max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction < max_fraction <= 1")
        if not 0.0 < max_probability <= 1.0:
            raise ValueError("max_probability must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self._rng = rng
        self.min_threshold = max(1.0, min_fraction * limit)
        self.max_threshold = max_fraction * limit
        self.max_probability = max_probability
        self.weight = weight
        self.average = 0.0
        self.early_drops = 0
        self._since_last_drop = 0

    def enqueue(self, item: Any) -> bool:
        self.average = (
            (1.0 - self.weight) * self.average + self.weight * len(self._items)
        )
        if self.average >= self.max_threshold or self._should_early_drop():
            self.early_drops += 1
            self.drop_count += 1
            self._since_last_drop = 0
            if self._dropped is not None:
                self._dropped.increment()
            if hasattr(item, "mark_dropped"):
                item.mark_dropped(self.name + ".red")
            trace = self.trace
            if trace is not None:
                trace.packet_drop(Q_DROP, self.name + ".red", item)
            self._fire_high_if_needed()
            return False
        accepted = super().enqueue(item)
        if accepted:
            self._since_last_drop += 1
        return accepted

    def _should_early_drop(self) -> bool:
        if self.average < self.min_threshold:
            return False
        span = self.max_threshold - self.min_threshold
        base = self.max_probability * (self.average - self.min_threshold) / span
        # Floyd & Jacobson's count correction spreads drops uniformly.
        denominator = max(1e-9, 1.0 - self._since_last_drop * base)
        probability = min(1.0, base / denominator)
        return self._rng.random() < probability
