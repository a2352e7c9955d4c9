"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import millis_to_ticks
from repro.sim.engine import Simulator


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(30, lambda: order.append("c"))
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(20, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    sim.schedule(10, lambda: order.append(1))
    sim.schedule(10, lambda: order.append(2))
    sim.schedule(10, lambda: order.append(3))
    sim.run()
    assert order == [1, 2, 3]


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(42, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42]
    assert sim.now == 42


def test_cancelled_event_does_not_fire(sim):
    fired = []
    ev = sim.schedule(10, lambda: fired.append(1))
    ev.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_the_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(10, lambda: fired.append("early"))
    sim.schedule(100, lambda: fired.append("late"))
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events(sim):
    sim.run(until=1234)
    assert sim.now == 1234


def test_run_for_relative_duration(sim):
    sim.run(until=100)
    fired = []
    sim.schedule(50, lambda: fired.append(1))
    sim.run_for(50)
    assert fired == [1]
    assert sim.now == 150


def test_events_scheduled_during_run_execute(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(5, lambda: order.append("inner"))

    sim.schedule(10, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 15


def test_zero_delay_event_runs_after_current(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0, lambda: order.append("chained"))

    sim.schedule(10, outer)
    sim.schedule(10, lambda: order.append("sibling"))
    sim.run()
    assert order == ["outer", "sibling", "chained"]


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_cancel_after_firing_is_a_noop():
    """A stale timer handle (cancelled after the event fired) must not
    mutate the ledger or resurrect the callback."""
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, lambda: fired.append("x"))
    sim.run()
    assert fired == ["x"]
    before = sim.queue_health()
    ev.cancel()
    ev.cancel()
    assert not ev.cancelled
    assert sim.queue_health() == before
    sim.check_invariant()


def test_live_events_covers_long_delay_heap_residents():
    """Timer-band delays (milliseconds of simulated time), short delays
    and same-tick hand-offs all show up in ``live_events`` and
    ``pending``, in ``(time, seq)`` order."""
    long_delay = millis_to_ticks(3.5)
    sim = Simulator()
    sim.schedule(long_delay, lambda: None)      # heap, far future
    sim.schedule(5, lambda: None)               # heap
    sim.schedule(0, lambda: None)               # lane
    cancelled = sim.schedule(2 * long_delay, lambda: None)
    cancelled.cancel()
    assert sim.live_events() == [(0, 3), (5, 2), (long_delay, 1)]
    assert sim.pending() == 4
    sim.check_invariant()


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=60))
def test_firing_order_is_sorted_for_any_delays(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
