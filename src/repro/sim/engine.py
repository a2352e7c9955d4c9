"""The discrete-event engine.

A :class:`Simulator` owns the virtual clock and a priority queue of pending
:class:`Event` objects.  Everything in the reproduction — packet arrivals,
CPU burst completions, softclock ticks, TCP retransmission timers — is an
event scheduled here.

Events are cancellable: cancelling marks the event dead and the main loop
skips it when popped (lazy deletion, the standard trick for heap-backed
simulators).  When cancelled events outnumber live ones the queue is
compacted in place, so long runs that cancel many timers (TCP retransmits
are the classic case) neither grow the heap nor pin the cancelled
callbacks' closures.  Ties in time are broken by insertion order, which
keeps runs deterministic; the snapshot/replay subsystem
(:mod:`repro.snapshot`) verifies that guarantee by digest comparison.

Performance notes (this is the hottest loop in the repository):

* The heap stores ``(time, seq, event)`` tuples, so sift comparisons run
  on C-level int tuples instead of a Python ``__lt__``.
* An event scheduled *at the current tick* — the module-graph hand-off
  pattern — skips the heap: it lands on a same-tick FIFO *fast lane* and
  pops in O(1).  Every due heap entry carries a smaller ``seq`` than any
  lane entry, so the loop drains those first and then the lane, which is
  exactly global ``(time, seq)`` order.  ``fast_lane=False`` routes
  everything through the heap; execution order, ``seq``,
  ``events_processed`` and ``live_events()`` are identical either way.
* ``run(until)`` carries its own fused copy of the loop, so steady-state
  runs do not pay a Python call per event.

The ledger is exact: every scheduled event is, at any instant, in exactly
one of four states — executed (``events_processed``), stored live, stored
cancelled (``cancelled_pending``), or cancelled and discarded
(``cancelled_removed``) — so
``seq == events_processed + pending() + cancelled_removed`` always holds;
:meth:`Simulator.check_invariant` asserts it and the tier-1 suite calls it
after full runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

#: Compaction is considered once the queue is at least this large; below
#: it the lazy-deletion garbage is too small to matter.
COMPACT_MIN_QUEUE = 64

#: Compact once cancelled events exceed this fraction of the queue.
COMPACT_RATIO = 0.5

#: Module-wide default for the same-tick fast lane; ``Simulator`` instances
#: constructed without an explicit ``fast_lane`` argument follow this, so a
#: test (or an emergency) can A/B the whole system with one assignment.
FAST_LANE_DEFAULT = True

#: Bound once: ``schedule`` and ``at`` push on nearly every call.
_heappush = heapq.heappush

#: Threshold stand-in when no progress hook is installed: no event count
#: ever reaches it, so the per-event check stays a single comparison.
_NEVER = 1 << 62


class Event:
    """A scheduled callback.

    Created through :meth:`Simulator.schedule` / :meth:`Simulator.at`; user
    code only ever needs :meth:`cancel` and :attr:`time`.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "fired", "sim")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event dead; it will never fire.

        The callback reference is dropped immediately — a cancelled event
        may sit in the heap until popped or compacted away, and it must not
        keep its closure (and whatever the closure captures) alive.

        Cancelling an event that already fired is a no-op: the event is
        not stored anywhere, so there is nothing to cancel and no
        lazy-deletion debt to record (stale timer handles — a retransmit
        timer cancelled after it fired — hit this path constantly).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        self.fn = None
        if self.sim is not None:
            self.sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        # The heap itself compares (time, seq, event) tuples and never
        # reaches the event (keys are unique); kept for user-code sorting.
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        if self.fired:
            state += " fired"
        return f"<Event t={self.time} seq={self.seq}{state}>"


class Simulator:
    """Virtual clock plus event queue.

    The clock unit is the integer *tick* defined in :mod:`repro.sim.clock`.
    A single Simulator instance is shared by every component of a testbed
    (server, clients, links); components keep a reference to it and schedule
    their own events.

    Parameters
    ----------
    compact_min_queue:
        Queue size below which lazy-deletion debt is never compacted.
    compact_ratio:
        Cancelled-to-queued fraction above which the heap is rebuilt.
    fast_lane:
        Enable the same-tick FIFO bypass (default: the module-level
        :data:`FAST_LANE_DEFAULT`).  Execution order is identical either
        way; the flag exists so determinism tests can prove it.
    """

    def __init__(self, *, compact_min_queue: int = COMPACT_MIN_QUEUE,
                 compact_ratio: float = COMPACT_RATIO,
                 fast_lane: Optional[bool] = None) -> None:
        if compact_min_queue < 1:
            raise ValueError(
                f"compact_min_queue must be positive: {compact_min_queue}")
        if not 0.0 < compact_ratio <= 1.0:
            raise ValueError(
                f"compact_ratio must be in (0, 1]: {compact_ratio}")
        self.now: int = 0
        #: Heap of ``(time, seq, event)`` entries (C-level comparisons).
        self._queue: List[Tuple[int, int, Event]] = []
        #: Same-tick FIFO: every entry's time == ``now`` while non-empty.
        self._lane: Deque[Event] = deque()
        self._fast_lane = (FAST_LANE_DEFAULT if fast_lane is None
                           else bool(fast_lane))
        self._seq: int = 0
        self._events_processed: int = 0
        # Cancelled events still sitting in the heap or lane (lazy debt).
        self._cancelled_pending: int = 0
        # Cancelled events already discarded (popped or compacted out) — the closing entry of the exact ledger.
        self._cancelled_removed: int = 0
        self.compactions: int = 0
        self.compact_min_queue = compact_min_queue
        self.compact_ratio = compact_ratio
        #: Events that bypassed the heap via the fast lane (diagnostics).
        self.fast_lane_events: int = 0
        # Progress hook: an out-of-band callback fired every N executed
        # events (see set_progress_hook).  ``_progress_at`` is the next
        # events_processed threshold; _NEVER keeps the per-event check a
        # single false comparison when no hook is installed.
        self._progress_hook: Optional[Callable[[], None]] = None
        self._progress_every: int = 0
        self._progress_at: int = _NEVER

    # ------------------------------------------------------------------
    # Progress hook
    # ------------------------------------------------------------------
    def set_progress_hook(self, fn: Callable[[], None],
                          every_events: int = 1000) -> None:
        """Call ``fn()`` after every ``every_events`` executed events.

        The hook is for *out-of-band* work only — supervision heartbeats,
        crash-injection triggers, wall-clock watchdogs.  It runs between
        events (never mid-callback) and must not schedule, cancel, or
        otherwise touch simulated state: determinism is guaranteed only
        for hooks the simulation cannot observe.
        """
        if every_events < 1:
            raise ValueError(f"every_events must be >= 1: {every_events}")
        self._progress_hook = fn
        self._progress_every = every_events
        self._progress_at = self._events_processed + every_events

    def clear_progress_hook(self) -> None:
        """Remove the progress hook (the per-event check goes dormant)."""
        self._progress_hook = None
        self._progress_every = 0
        self._progress_at = _NEVER

    def _fire_progress(self) -> None:
        # Re-arm before calling: a hook that raises (or never returns —
        # an injected hang) must not be re-entered on the same threshold.
        self._progress_at = self._events_processed + self._progress_every
        self._progress_hook()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        # Body duplicated with ``at`` on purpose: together these are the
        # single hottest call pair in the repository, and the extra frame
        # of ``return self.at(...)`` was measurable.
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, self)
        if delay == 0 and self._fast_lane:
            # Same-tick hand-off: FIFO order IS (time, seq) order here,
            # because every lane entry shares ``time`` and ``seq`` is
            # monotonic.  No heap traffic.
            self._lane.append(ev)
        else:
            _heappush(self._queue, (time, seq, ev))
        return ev

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at an absolute tick ``time`` (>= now)."""
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past: {time} < {now}")
        self._seq = seq = self._seq + 1
        ev = Event(time, seq, fn, self)
        if time == now and self._fast_lane:
            self._lane.append(ev)
        else:
            _heappush(self._queue, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._cancelled_pending += 1
        queued = len(self._queue)
        if (self._cancelled_pending > queued * self.compact_ratio
                and queued >= self.compact_min_queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events.

        Execution order is unaffected: live events keep their unique
        ``(time, seq)`` keys, so replays are bit-identical whether or not
        a compaction happened.  In-place (slice assignment) so the fused
        run loops' local binding of the queue list stays valid.
        """
        queue = self._queue
        before = len(queue)
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapq.heapify(queue)
        removed = before - len(queue)
        self._cancelled_pending -= removed
        self._cancelled_removed += removed
        self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        while True:
            if lane and not (queue and queue[0][0] <= self.now):
                # Every due heap entry was scheduled before any lane entry
                # (smaller seq), so the lane only pops once the heap holds
                # nothing for the current tick.
                ev = lane.popleft()
                if ev.cancelled:
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                ev.fired = True
                self._events_processed += 1
                self.fast_lane_events += 1
                fn = ev.fn
                ev.fn = None
                fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                return True
            if queue:
                time, _seq, ev = queue[0]
                if ev.cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                pop(queue)
                self.now = time
                ev.fired = True
                self._events_processed += 1
                ev.fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                return True
            return False

    def step_until(self, until: int) -> bool:
        """Run the next event if it is due at or before ``until``.

        Returns True when an event executed, False when the next live event
        (if any) lies beyond ``until``.  Unlike :meth:`run`, the clock is
        *not* advanced to ``until`` on False — call :meth:`finish_until`
        for that.  ``run(until=X)`` is exactly
        ``while step_until(X): pass`` followed by ``finish_until(X)``; the
        replay driver uses this decomposition to observe the machine
        between events.
        """
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        while True:
            if lane and not (queue and queue[0][0] <= self.now):
                if self.now > until:
                    return False
                ev = lane.popleft()
                if ev.cancelled:
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                ev.fired = True
                self._events_processed += 1
                self.fast_lane_events += 1
                fn = ev.fn
                ev.fn = None
                fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                return True
            if queue:
                time, _seq, ev = queue[0]
                if ev.cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                if time > until:
                    return False
                pop(queue)
                self.now = time
                ev.fired = True
                self._events_processed += 1
                ev.fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                return True
            return False

    def finish_until(self, until: int) -> None:
        """Advance the clock to exactly ``until`` (if it is not there yet)."""
        if self.now < until:
            self.now = until

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or the clock passes ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so measurement windows have a
        well-defined end time.
        """
        if until is None:
            while self.step():
                pass
            return
        # Fused copy of the step_until loop: steady-state runs execute
        # every event here, and the per-event Python call into step_until
        # (plus its local re-binds) was the single largest engine cost.
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        while True:
            if lane and not (queue and queue[0][0] <= self.now):
                ev = lane.popleft()
                if ev.cancelled:
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                ev.fired = True
                self._events_processed += 1
                self.fast_lane_events += 1
                fn = ev.fn
                ev.fn = None
                fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                continue
            if queue:
                time, _seq, ev = queue[0]
                if ev.cancelled:
                    pop(queue)
                    self._cancelled_pending -= 1
                    self._cancelled_removed += 1
                    continue
                if time > until:
                    break
                pop(queue)
                self.now = time
                ev.fired = True
                self._events_processed += 1
                ev.fn()
                if self._events_processed >= self._progress_at:
                    self._fire_progress()
                continue
            break
        self.finish_until(until)

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` ticks from the current time."""
        self.run(until=self.now + duration)

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for engine diagnostics)."""
        return self._events_processed

    @property
    def seq(self) -> int:
        """Total events ever scheduled (monotonic; part of state digests)."""
        return self._seq

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue) + len(self._lane)

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap or fast-lane slots."""
        return self._cancelled_pending

    def cancelled_removed(self) -> int:
        """Cancelled events already discarded from storage."""
        return self._cancelled_removed

    def live_events(self) -> List[Tuple[int, int]]:
        """Sorted ``(time, seq)`` keys of every live queued event.

        This is the queue's *shape* independent of its internal layout
        (and of whether an event sits in the heap or the lane), so digests
        built from it are stable across compactions and fast-lane routing.
        """
        keys = [(time, seq) for time, seq, ev in self._queue
                if not ev.cancelled]
        keys.extend((ev.time, ev.seq) for ev in self._lane
                    if not ev.cancelled)
        keys.sort()
        return keys

    def check_invariant(self) -> None:
        """Assert the exact scheduling ledger (cheap; O(1)).

        Every scheduled event is executed, stored, or cancelled-and-
        discarded — no event is ever lost or double-counted.  Raises
        AssertionError with the full ledger on breach.
        """
        stored = self.pending()
        total = self._events_processed + stored + self._cancelled_removed
        if total != self._seq:
            raise AssertionError(
                f"event ledger breach: scheduled={self._seq} != "
                f"processed={self._events_processed} + stored={stored} + "
                f"cancelled_removed={self._cancelled_removed} "
                f"(= {total}); health={self.queue_health()}")

    def queue_health(self) -> dict:
        """Engine-health counters (``repro bench``'s end-to-end report and
        the obs session's engine gauges)."""
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "scheduled": self._seq,
            "pending": self.pending(),
            "cancelled_pending": self._cancelled_pending,
            "cancelled_removed": self._cancelled_removed,
            "compactions": self.compactions,
            "fast_lane_events": self.fast_lane_events,
        }
