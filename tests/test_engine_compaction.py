"""Event-heap compaction: lazy-deletion debt must not accumulate.

The satellite requirement: when cancelled events exceed half the heap, the
engine rebuilds the heap in place, shrinking memory and dropping the
cancelled callbacks' closures — with zero effect on execution order.
"""

from __future__ import annotations

from repro.sim.clock import millis_to_ticks
from repro.sim.engine import COMPACT_MIN_QUEUE, Simulator


def test_compaction_triggers_past_half_cancelled():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(200)]
    assert sim.compactions == 0
    # Cancel just over half: the first cancel crossing the threshold
    # compacts, leaving only live events in the heap.
    for ev in events[:101]:
        ev.cancel()
    assert sim.compactions >= 1
    assert sim.pending() == 99
    assert sim.cancelled_pending() == 0


def test_no_compaction_below_minimum_queue():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(COMPACT_MIN_QUEUE - 4)]
    for ev in events:
        ev.cancel()
    # Too small to bother: lazy deletion handles it at pop time.
    assert sim.compactions == 0
    assert sim.pending() == len(events)
    sim.run()
    assert sim.events_processed == 0


def test_cancel_releases_callback_closure():
    sim = Simulator()
    big = [0] * 1000

    def cb(payload=big):
        return payload

    ev = sim.schedule(10, cb)
    assert ev.fn is not None
    ev.cancel()
    assert ev.fn is None  # the closure (and `big`) is no longer pinned


def test_execution_order_identical_with_and_without_compaction():
    def build(compact: bool):
        sim = Simulator()
        fired = []
        events = []
        for i in range(300):
            events.append(sim.schedule(1 + (i % 37), lambda i=i: fired.append(i)))
        victims = [e for i, e in enumerate(events) if i % 3 == 0]
        if not compact:
            # Disable the compactor by raising the floor out of reach.
            sim._cancelled_pending = -10_000
        for e in victims:
            e.cancel()
        sim.run()
        return fired

    with_compact = build(True)
    without_compact = build(False)
    assert with_compact == without_compact
    assert len(with_compact) == 200


def test_live_events_is_stable_across_compaction():
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(200)]
    before = sim.live_events()
    for ev in events[:120:2]:
        ev.cancel()
    expected = [key for key, ev in zip(before, events) if not ev.cancelled]
    assert sim.live_events() == expected
    assert sim.compactions >= 0  # regardless of whether a compaction ran


def test_popping_cancelled_head_reduces_debt():
    sim = Simulator()
    fired = []
    first = sim.schedule(1, lambda: fired.append("a"))
    sim.schedule(2, lambda: fired.append("b"))
    first.cancel()
    sim.run()
    assert fired == ["b"]
    assert sim.cancelled_pending() == 0
    assert sim.events_processed == 1


def test_cancelled_fast_lane_pop_moves_debt_to_removed():
    """Compaction accounting: a cancelled lane entry popped by the loop
    decrements ``cancelled_pending`` (it no longer occupies a slot) and
    increments ``cancelled_removed`` — the exact-ledger invariant holds
    at every intermediate step."""
    sim = Simulator(fast_lane=True)
    fired = []
    dead = sim.schedule(0, lambda: fired.append("dead"))
    sim.schedule(0, lambda: fired.append("live"))
    dead.cancel()
    assert sim.cancelled_pending() == 1
    sim.check_invariant()
    sim.run()
    assert fired == ["live"]
    assert sim.cancelled_pending() == 0
    assert sim.cancelled_removed() == 1
    sim.check_invariant()


def test_exact_ledger_under_cancel_heavy_timer_churn():
    """The retransmit pattern: thousands of long-delay timers, nine in
    ten cancelled before firing.  Compaction and pop-time discards
    together settle every cancelled event exactly once."""
    base = millis_to_ticks(3.5)
    sim = Simulator()
    events = [sim.schedule(base + (i % 512) * 4096, lambda: None)
              for i in range(3_000)]
    for i, ev in enumerate(events):
        if i % 10:
            ev.cancel()
            sim.check_invariant()
    assert sim.compactions >= 1
    sim.run()
    sim.check_invariant()
    health = sim.queue_health()
    assert health["events_processed"] == 300
    assert health["pending"] == 0
    assert health["cancelled_pending"] == 0
    assert health["cancelled_removed"] == 2_700
