"""Unit tests for kernel events, semaphores, and the softclock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import millis_to_ticks
from repro.sim.cpu import Block, Cycles
from repro.sim.engine import Simulator
from repro.kernel.errors import InvalidOperationError
from repro.kernel.events import EVENT_KMEM, SEMAPHORE_KMEM
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.owner import Owner, OwnerType


def make_owner(name="o"):
    return Owner(OwnerType.PATH, name=name)


# ----------------------------------------------------------------------
# Events + softclock
# ----------------------------------------------------------------------
def test_event_fires_thread_owned_by_event_owner(sim, kernel):
    kernel.boot()
    owner = make_owner()
    fired = []

    def body():
        yield Cycles(10)
        fired.append((sim.now, kernel.cpu.current.owner))

    kernel.create_event(owner, body, delay_ticks=millis_to_ticks(3))
    sim.run(until=millis_to_ticks(10))
    assert len(fired) == 1
    _, fire_owner = fired[0]
    assert fire_owner is owner
    assert owner.usage.cycles >= 10


def test_event_fires_at_softclock_granularity(sim, kernel):
    """Events dispatch on the next millisecond tick past their delay."""
    kernel.boot()
    fired = []

    def body():
        fired.append(sim.now)
        return
        yield  # pragma: no cover - make it a generator

    kernel.create_event(make_owner(), body,
                        delay_ticks=millis_to_ticks(1.5))
    sim.run(until=millis_to_ticks(5))
    assert len(fired) == 1
    # 1.5 ms delay rounds up to the 2 ms softclock tick.
    assert fired[0] >= millis_to_ticks(2)
    assert fired[0] < millis_to_ticks(3)


def test_cancelled_event_never_fires(sim, kernel):
    kernel.boot()
    owner = make_owner()
    fired = []

    def body():
        fired.append(1)
        return
        yield  # pragma: no cover

    ev = kernel.create_event(owner, body, delay_ticks=millis_to_ticks(2))
    ev.cancel()
    sim.run(until=millis_to_ticks(5))
    assert fired == []
    assert owner.usage.events == 0
    assert owner.usage.kmem == 0


def test_periodic_event_repeats_until_cancelled(sim, kernel):
    kernel.boot()
    owner = make_owner()
    fired = []

    def body():
        fired.append(sim.now)
        return
        yield  # pragma: no cover

    ev = kernel.create_event(owner, body, delay_ticks=millis_to_ticks(2),
                             periodic=True)
    sim.run(until=millis_to_ticks(11))
    assert len(fired) >= 3
    ev.cancel()
    count = len(fired)
    sim.run(until=millis_to_ticks(20))
    assert len(fired) == count


def test_event_of_destroyed_owner_dropped(sim, kernel):
    kernel.boot()
    owner = make_owner()
    fired = []

    def body():
        fired.append(1)
        return
        yield  # pragma: no cover

    kernel.create_event(owner, body, delay_ticks=millis_to_ticks(2))
    owner.destroyed = True
    sim.run(until=millis_to_ticks(5))
    assert fired == []


def test_softclock_charges_kernel_owner(sim, kernel):
    kernel.boot()
    sim.run(until=millis_to_ticks(10))
    expected = kernel.softclock.ticks * kernel.costs.softclock_tick
    assert kernel.kernel_owner.usage.cycles == expected
    assert kernel.softclock.ticks >= 9


def test_event_kmem_accounting(sim, kernel):
    owner = make_owner()

    def body():
        return
        yield  # pragma: no cover

    ev = kernel.create_event(owner, body, delay_ticks=0)
    assert owner.usage.events == 1
    assert owner.usage.kmem == EVENT_KMEM
    ev.cancel()
    assert owner.usage.events == 0
    assert owner.usage.kmem == 0


def _wheel_tombstones(softclock):
    return sum(1 for _due, _seq, ev in softclock._wheel if ev.cancelled)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "periodic", "cancel",
                                           "tick"]),
                          st.integers(min_value=0, max_value=400)),
                max_size=150))
def test_softclock_counts_exactly_its_tombstones(ops):
    """The lazy-purge counter equals the cancelled entries in the wheel,
    whatever mix of arming, cancelling and firing happened: cancelling
    an event that already fired (and left the wheel) adds no tombstone."""
    sim = Simulator()
    kernel = Kernel(sim, KernelConfig())
    kernel.boot()
    owner = make_owner()
    softclock = kernel.softclock
    events = []

    def body():
        return
        yield  # pragma: no cover

    for op, arg in ops:
        if op in ("add", "periodic"):
            events.append(kernel.create_event(
                owner, body, delay_ticks=millis_to_ticks(arg % 7),
                periodic=op == "periodic"))
        elif op == "cancel":
            if events:
                events[arg % len(events)].cancel()
        else:
            sim.run(until=sim.now + millis_to_ticks(arg % 5))
        assert softclock._cancelled_pending == _wheel_tombstones(softclock)


# ----------------------------------------------------------------------
# Semaphores
# ----------------------------------------------------------------------
def test_semaphore_acquire_release(sim, kernel):
    owner = make_owner()
    sema = kernel.create_semaphore(owner, count=1)
    log = []

    def body(tag):
        ok = yield from sema.acquire()
        log.append((tag, ok, sim.now))
        yield Cycles(100)
        sema.release()

    kernel.spawn_thread(owner, body("a"))
    kernel.spawn_thread(owner, body("b"))
    sim.run()
    assert [entry[0] for entry in log] == ["a", "b"]
    assert all(entry[1] for entry in log)
    assert log[1][2] > log[0][2]  # b waited for a's release


def test_semaphore_counter_accounting(sim, kernel):
    owner = make_owner()
    sema = kernel.create_semaphore(owner)
    assert owner.usage.semaphores == 1
    assert owner.usage.kmem == SEMAPHORE_KMEM
    sema.destroy()
    assert owner.usage.semaphores == 0
    assert owner.usage.kmem == 0


def test_semaphore_destroy_wakes_foreign_waiters(sim, kernel):
    """Destroying a semaphore unblocks threads of other owners."""
    owner = make_owner("sema-owner")
    foreign = make_owner("foreign")
    sema = kernel.create_semaphore(owner, count=0)
    result = []

    def body():
        ok = yield from sema.acquire()
        result.append(ok)

    kernel.spawn_thread(foreign, body())
    sim.schedule(1000, sema.destroy)
    sim.run()
    assert result == [False]


def test_semaphore_release_after_destroy_rejected(sim, kernel):
    sema = kernel.create_semaphore(make_owner())
    sema.destroy()
    with pytest.raises(InvalidOperationError):
        sema.release()


def test_try_acquire(sim, kernel):
    sema = kernel.create_semaphore(make_owner(), count=1)
    assert sema.try_acquire()
    assert not sema.try_acquire()
    sema.release()
    assert sema.try_acquire()
