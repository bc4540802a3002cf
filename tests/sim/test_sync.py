"""Tests for semaphores, timed semaphores and queues."""

import random

import pytest

from repro.sim.scheduler import AnyOf, Event, SimulationError, Simulator, Timeout
from repro.sim.sync import Queue, QueueFull, Semaphore, TimedSemaphore


class TestSemaphore:
    def test_immediate_acquire_when_available(self, sim):
        sem = Semaphore(sim, 2)

        def coro():
            yield sem.acquire()
            return sim.now

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == 0.0
        assert sem.value == 1

    def test_acquire_blocks_until_release(self, sim):
        sem = Semaphore(sim, 0)

        def coro():
            yield sem.acquire()
            return sim.now

        proc = sim.spawn(coro())
        sim.call_after(2.0, sem.release)
        sim.run()
        assert proc.finished.value == 2.0

    def test_fifo_wakeup_order(self, sim):
        sem = Semaphore(sim, 0)
        order = []

        def coro(name):
            yield sem.acquire()
            order.append(name)

        sim.spawn(coro("first"))
        sim.spawn(coro("second"))
        sim.call_after(1.0, sem.release)
        sim.call_after(2.0, sem.release)
        sim.run()
        assert order == ["first", "second"]

    def test_release_with_no_waiters_increments(self, sim):
        sem = Semaphore(sim, 0)
        sem.release()
        assert sem.value == 1

    def test_try_acquire(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()

    def test_try_acquire_respects_waiters(self, sim):
        # A queued waiter must get the unit before any try_acquire.
        sem = Semaphore(sim, 0)
        got = []

        def coro():
            yield sem.acquire()
            got.append(sim.now)

        sim.spawn(coro())
        sim.run()
        sem.release()
        assert not sem.try_acquire()
        sim.run()
        assert got

    def test_negative_initial_value_rejected(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, -1)

    def test_waiting_count(self, sim):
        sem = Semaphore(sim, 0)

        def coro():
            yield sem.acquire()

        sim.spawn(coro())
        sim.spawn(coro())
        sim.run()
        assert sem.waiting == 2


class TestTimedSemaphore:
    def test_no_blocking_time_when_available(self, sim):
        sem = TimedSemaphore(sim, 1)

        def coro():
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.run()
        assert sem.blocked_time("app") == 0.0

    def test_blocking_time_accumulates(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app")
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.call_after(1.0, sem.release)
        sim.call_after(4.0, sem.release)
        sim.run()
        assert sem.blocked_time("app") == pytest.approx(4.0)

    def test_roles_tracked_independently(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro(role):
            yield sem.acquire(role)

        sim.spawn(coro("app"))
        sim.spawn(coro("proto"))
        sim.call_after(1.0, sem.release)
        sim.call_after(3.0, sem.release)
        sim.run()
        assert sem.blocked_time("app") == pytest.approx(1.0)
        assert sem.blocked_time("proto") == pytest.approx(3.0)

    def test_reset_stats(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            yield sem.acquire("app")

        sim.spawn(coro())
        sim.call_after(2.0, sem.release)
        sim.run()
        sem.reset_stats()
        assert sem.blocked_time("app") == 0.0
        assert sem.acquire_count("app") == 0

    def test_acquire_count(self, sim):
        sem = TimedSemaphore(sim, 5)

        def coro():
            for _ in range(3):
                yield sem.acquire("app")

        sim.spawn(coro())
        sim.run()
        assert sem.acquire_count("app") == 3

    def test_reset_between_grant_and_resume(self, sim):
        # The uncontended grant is counted at acquire time, so a reset
        # before the waiter resumes clears it; nothing was blocked.
        sem = TimedSemaphore(sim, 1)

        def coro():
            waitable = sem.acquire("app")
            sim.call_soon(sem.reset_stats)
            yield waitable

        sim.spawn(coro())
        sim.run()
        assert sem.acquire_count("app") == 0
        assert sem.blocked_time("app") == 0.0


class _EventTimedSemaphore(TimedSemaphore):
    """The acquire path without the uncontended fast path, as it was
    written before: two Events, one closure and one span per acquire."""

    def acquire(self, role="unknown"):
        token = self._waits.begin(role)
        inner = Event(self.sim)
        if self._value > 0 and not self._waiters:
            self._value -= 1
            inner.set(None)
        else:
            self._waiters.append(inner)
        outer = Event(self.sim)

        def on_grant(_value):
            self._waits.end(token)
            outer.set(None)

        inner._await(on_grant)
        return outer

    def release(self):
        if self._waiters:
            self._waiters.popleft().set(None)
        else:
            self._value += 1


def _semaphore_trace(sem_cls, seed):
    """Firing times, blocked times and counts of one random program.

    Times are multiples of 1/8 s so grants, releases, samples and
    resets collide at the same instants.
    """
    rng = random.Random(seed)
    sim = Simulator()
    sem = sem_cls(sim, rng.randrange(3))
    roles = ("application", "protocol")
    log = []

    def tick():
        return rng.randrange(4) / 8

    plans = [
        [(tick(), tick(), rng.random() < 0.2) for _ in range(12)]
        for _ in range(4)
    ]
    samples = [(tick(), rng.random() < 0.4) for _ in range(40)]

    def worker(index, plan):
        role = roles[index % 2]
        for hold, pause, reset_before_resume in plan:
            waitable = sem.acquire(role)
            if reset_before_resume:
                sim.call_soon(sem.reset_stats)
            yield waitable
            log.append((sim.now, index, sem.blocked_time(role),
                        sem.acquire_count(role)))
            if hold:
                yield Timeout(sim, hold)
            sem.release()
            if pause:
                yield Timeout(sim, pause)

    def sampler():
        for delay, reset in samples:
            yield Timeout(sim, delay)
            log.append((sim.now, "sample") + tuple(
                (sem.blocked_time(role), sem.acquire_count(role))
                for role in roles
            ))
            if reset:
                sem.reset_stats()

    for index, plan in enumerate(plans):
        sim.spawn(worker(index, plan))
    sim.spawn(sampler())
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(8))
def test_fast_path_keeps_blocked_time_and_counts(seed):
    # Uncontended and contended acquires, resets at grant instants:
    # every resume time, blocked time and acquire count is exactly the
    # one the Event-based acquire gives.
    assert _semaphore_trace(TimedSemaphore, seed) == \
        _semaphore_trace(_EventTimedSemaphore, seed)


class TestInterruptedWaiters:
    """A waiter that stops waiting leaves the FIFO at once."""

    def _park_and_interrupt(self, sim, waitable_factory):
        def coro():
            yield waitable_factory()

        proc = sim.spawn(coro())
        sim.call_at(1.0, proc.interrupt)
        sim.run(until=1.5)
        assert not proc.alive
        return proc

    def test_timed_semaphore_unit_and_span(self, sim):
        sem = TimedSemaphore(sim, 0)
        self._park_and_interrupt(sim, lambda: sem.acquire("app"))
        assert sem.waiting == 0
        sim.call_at(2.0, sem.release)
        sim.run(until=2.0)
        # Blocked from 0 to the interrupt at 1, not until the release.
        assert sem.blocked_time("app") == 1.0
        assert sem.try_acquire()

    def test_semaphore_unit_goes_to_next_waiter(self, sim):
        sem = Semaphore(sim, 0)
        self._park_and_interrupt(sim, sem.acquire)
        got = []

        def second():
            yield sem.acquire()
            got.append(sim.now)

        sim.spawn(second())
        sim.call_at(2.0, sem.release)
        sim.run()
        assert got == [2.0]
        assert sem.value == 0

    def test_semaphore_anyof_loss_withdraws(self, sim):
        sem = TimedSemaphore(sim, 0)

        def coro():
            index, _ = yield AnyOf(sim, [sem.acquire("app"), Timeout(sim, 1.0)])
            return index

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == 1
        assert sem.waiting == 0
        assert sem.blocked_time("app") == 1.0
        sem.release()
        assert sem.value == 1

    def test_queue_get_item_stays_queued(self, sim):
        q = Queue(sim)
        self._park_and_interrupt(sim, q.get)
        q.put_nowait("x")
        assert len(q) == 1
        assert q.get_nowait() == "x"

    def test_queue_put_item_never_enqueued(self, sim):
        q = Queue(sim, capacity=1)
        q.put_nowait("first")
        self._park_and_interrupt(sim, lambda: q.put("withdrawn"))
        assert q.get_nowait() == "first"
        assert len(q) == 0


class TestQueue:
    def test_put_get_roundtrip(self, sim):
        q = Queue(sim)

        def coro():
            yield q.put("item")
            value = yield q.get()
            return value

        proc = sim.spawn(coro())
        sim.run()
        assert proc.finished.value == "item"

    def test_get_blocks_until_put(self, sim):
        q = Queue(sim)

        def getter():
            value = yield q.get()
            return (sim.now, value)

        proc = sim.spawn(getter())
        sim.call_after(3.0, lambda: q.put_nowait("late"))
        sim.run()
        assert proc.finished.value == (3.0, "late")

    def test_fifo_order(self, sim):
        q = Queue(sim)
        for i in range(5):
            q.put_nowait(i)
        assert [q.get_nowait() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_bounded_put_blocks(self, sim):
        q = Queue(sim, capacity=1)
        q.put_nowait("first")

        def putter():
            yield q.put("second")
            return sim.now

        proc = sim.spawn(putter())
        sim.call_after(2.0, q.get_nowait)
        sim.run()
        assert proc.finished.value == 2.0

    def test_put_nowait_full_raises(self, sim):
        q = Queue(sim, capacity=1)
        q.put_nowait(1)
        with pytest.raises(QueueFull):
            q.put_nowait(2)

    def test_get_nowait_empty_raises(self, sim):
        q = Queue(sim)
        with pytest.raises(IndexError):
            q.get_nowait()

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Queue(sim, capacity=0)

    def test_waiting_getter_receives_direct_handoff(self, sim):
        q = Queue(sim)
        got = []

        def getter():
            got.append((yield q.get()))

        sim.spawn(getter())
        sim.run()
        q.put_nowait("x")
        sim.run()
        assert got == ["x"]
        assert len(q) == 0

    def test_clear_drops_items_and_admits_putters(self, sim):
        q = Queue(sim, capacity=2)
        q.put_nowait(1)
        q.put_nowait(2)

        def putter():
            yield q.put(3)
            return sim.now

        proc = sim.spawn(putter())
        sim.run()
        dropped = q.clear()
        sim.run()
        assert dropped == 2
        assert proc.finished.is_set
        assert q.get_nowait() == 3
