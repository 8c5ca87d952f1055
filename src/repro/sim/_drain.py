"""The simulator's drain loop and its sanitized twin.

* :func:`drain_plain` is the hot loop ``Simulator.run`` calls; the
  compiled core (``repro._fastcore._corec``) ports it line for line.
* :func:`drain_sanitized` is the same loop plus an invariant-check hook
  every N fired events, taken only when a sanitizer is attached.

The two must stay twins: same firing order, same counter values
observable from inside any callback (what the livelock watchdog
samples), same final stats. ``tests/sim/test_drain_variants.py`` runs
them side by side and checks that their sources differ by the
sanitizer lines alone, so a change to the shared body (tombstone skip,
slab recycle, clock checks) has to land in both.

The slab recycle is ``EventSlab.release``'s fast path inlined: an event
goes back to the freelist only when ``getrefcount`` shows the drain's
local as its last reference.
"""

from __future__ import annotations

from heapq import heappop
from sys import getrefcount

from .errors import ClockError
from .events import CANCELLED, FIRED


def drain_plain(self, deadline):
    pop = heappop
    getref = getrefcount
    slab = self._slab
    free = slab._free
    cap = slab.max_free
    advance = self._advance
    while True:
        cur = self._cur
        while cur:
            head = cur[0]
            event = head[2]
            if event.state == CANCELLED:
                pop(cur)
                self._tombstones -= 1
                del head
                if getref(event) == 2:
                    nfree = len(free)
                    if nfree < cap:
                        free.append(event)
                        if nfree >= slab.high_water:
                            slab.high_water = nfree + 1
                continue
            time = head[0]
            if time > deadline:
                break
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
            if getref(event) == 2:
                nfree = len(free)
                if nfree < cap:
                    free.append(event)
                    if nfree >= slab.high_water:
                        slab.high_water = nfree + 1
        else:
            if advance(deadline):
                continue
        break


def drain_sanitized(self, deadline):
    pop = heappop
    getref = getrefcount
    slab = self._slab
    free = slab._free
    cap = slab.max_free
    advance = self._advance
    hook = self._sanitize_hook
    every = self._sanitize_every
    countdown = every
    while True:
        cur = self._cur
        while cur:
            head = cur[0]
            event = head[2]
            if event.state == CANCELLED:
                pop(cur)
                self._tombstones -= 1
                del head
                if getref(event) == 2:
                    nfree = len(free)
                    if nfree < cap:
                        free.append(event)
                        if nfree >= slab.high_water:
                            slab.high_water = nfree + 1
                continue
            time = head[0]
            if time > deadline:
                break
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
            if getref(event) == 2:
                nfree = len(free)
                if nfree < cap:
                    free.append(event)
                    if nfree >= slab.high_water:
                        slab.high_water = nfree + 1
            countdown -= 1
            if countdown <= 0:
                countdown = every
                hook()
        else:
            if advance(deadline):
                continue
        break
