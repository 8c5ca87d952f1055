"""Windowed time-series aggregation over a trace record stream.

:class:`Timeline` folds the raw :class:`~repro.trace.buffer.TraceBuffer`
stream into fixed windows of simulated time — the per-window series the
paper's figures are secretly made of: input and output packet counts,
drops by site, CPU nanoseconds by IPL, quota exhaustions, and
feedback/cycle-limit state flips. The fold runs inside
:meth:`TraceBuffer.record <repro.trace.buffer.TraceBuffer.record>`,
record by record and before ring overwrite, so its numbers are exact
over the whole trial even when the ring only retains the tail; which
kind feeds which series is :attr:`Timeline.SERIES`. Only the windows
are kept: cumulative ``totals`` are summed from them when read.

Window-edge semantics (shared with ``ProbeRegistry.dump()``): a record
with timestamp ``t`` lands in window ``t // window_ns``, i.e. windows
are half-open intervals ``[k*w, (k+1)*w)``; a counter snapshot taken at
time ``T`` — a probe dump, or a :meth:`mark` — therefore agrees with the
sum of all windows strictly before ``T`` plus the partial window
containing it. CPU accounting chunks are attributed to the window in
which the chunk *ends* (the record's timestamp), so a chunk spanning an
edge is not split.

The harness drops two marks on every traced trial — ``measure_start``
at the warmup boundary and ``measure_end`` at the end of the measurement
window — and the difference of their cumulative totals reconciles with
the TrialResult scalars (``delivered``, ``generated``) and, after
``Router.teardown()``, with the pool's packet accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .buffer import (
    CYCLE_LIMIT,
    CYCLE_RESET,
    FEEDBACK_TIMEOUT,
    INPUT_ALLOW,
    INPUT_INHIBIT,
    IRQ_DISPATCH,
    KIND_NAMES,
    MITIGATE_DOWN,
    MITIGATE_UP,
    PKT_DELIVER,
    PKT_INJECT,
    Q_DROP,
    QUOTA_EXHAUST,
    RX_OVERFLOW,
)

#: Per-window integer counter keys, in serialization order, each with
#: the record kinds that bump it. Mitigation escalations fold into the
#: inhibit series: both are the kernel throttling its own input side.
_COUNTED_KINDS = {
    "inject": (PKT_INJECT,),
    "deliver": (PKT_DELIVER,),
    "rx_overflow": (RX_OVERFLOW,),
    "queue_drops": (Q_DROP,),
    "quota_exhausted": (QUOTA_EXHAUST,),
    "inhibits": (INPUT_INHIBIT, CYCLE_LIMIT, MITIGATE_UP),
    "allows": (INPUT_ALLOW, FEEDBACK_TIMEOUT, CYCLE_RESET, MITIGATE_DOWN),
    "irq_dispatch": (IRQ_DISPATCH,),
}
_WINDOW_COUNTS = tuple(_COUNTED_KINDS)


def _series_by_kind():
    series = [None] * (max(KIND_NAMES) + 1)
    for key, kinds in _COUNTED_KINDS.items():
        for kind in kinds:
            series[kind] = key
    return tuple(series)


def _new_window() -> Dict:
    window = dict.fromkeys(_WINDOW_COUNTS, 0)
    window["latency_ns_sum"] = 0
    window["drops"] = {}
    window["cpu_ns"] = {}
    return window


class Timeline:
    """Per-window aggregates of a trace stream.

    ``window_ns`` is typically the watchdog window
    (``config.watchdog_window_ticks * config.clock_tick_ns``) so the
    timeline lines up with watchdog verdict windows.

    The fold itself runs inside ``TraceBuffer.record`` (one call per
    record): it adds to :attr:`current`, the window numbered
    :attr:`current_index`, calls :meth:`open_window` when a record
    crosses a window edge, and looks up which counter a kind bumps in
    :attr:`SERIES`.
    """

    #: kind -> the per-window counter it bumps, indexed by kind. ``None``
    #: means no counter: CPU_ACCOUNT folds into ``cpu_ns`` by IPL, and
    #: the other kinds only open their window.
    SERIES = _series_by_kind()

    def __init__(self, window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError("timeline window must be positive")
        self.window_ns = window_ns
        self._windows: Dict[int, Dict] = {}
        self.current: Optional[Dict] = None
        self.current_index = -1
        self.marks: Dict[str, Dict] = {}

    def open_window(self, index: int) -> Dict:
        """Make window ``index`` the one records fold into."""
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _new_window()
        self.current = window
        self.current_index = index
        return window

    @property
    def totals(self) -> Dict:
        """Cumulative totals: every window so far, summed in time order
        (so ``drops``/``cpu_ns`` keep first-occurrence key order)."""
        totals = _new_window()
        drops = totals["drops"]
        cpu = totals["cpu_ns"]
        for index in sorted(self._windows):
            window = self._windows[index]
            for key in _WINDOW_COUNTS:
                totals[key] += window[key]
            totals["latency_ns_sum"] += window["latency_ns_sum"]
            for site, count in window["drops"].items():
                drops[site] = drops.get(site, 0) + count
            for ipl, ns in window["cpu_ns"].items():
                cpu[ipl] = cpu.get(ipl, 0) + ns
        return totals

    def mark(self, name: str, t_ns: int) -> None:
        """Snapshot cumulative totals at an instant (warmup boundary,
        measurement end). Snapshot-vs-window agreement is the documented
        edge semantics above."""
        self.marks[name] = {"t_ns": t_ns, "totals": self.totals}

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @property
    def window_count(self) -> int:
        return len(self._windows)

    def windows(self) -> List[Dict]:
        """Window dicts in time order, each with ``index``/``start_ns``."""
        out = []
        for index in sorted(self._windows):
            window = dict(self._windows[index])
            window["index"] = index
            window["start_ns"] = index * self.window_ns
            out.append(window)
        return out

    def to_dict(self) -> Dict:
        """JSON-safe form stored on ``TrialResult.timeline`` and carried
        through the wire format and the result cache."""
        return {
            "window_ns": self.window_ns,
            "windows": self.windows(),
            "totals": self.totals,
            "marks": {
                name: {"t_ns": mark["t_ns"], "totals": dict(mark["totals"])}
                for name, mark in self.marks.items()
            },
        }

    def __repr__(self) -> str:
        return "Timeline(window_ns=%d, windows=%d)" % (
            self.window_ns,
            len(self._windows),
        )
