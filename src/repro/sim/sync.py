"""Process synchronisation primitives with blocking-time accounting.

The paper's data-transfer interface (section 3.7) is built on shared
circular buffers guarded by semaphores, and makes a point of the fact
that *"the time spent blocking by both the application and the transport
entity can be measured by monitoring the state of the synchronisation
semaphores"*; those statistics feed the Orch.Regulate.indication report
(section 6.3.1.2).  :class:`TimedSemaphore` implements exactly that:
every acquire is tagged with a role label and the total time each role
spent blocked is accumulated.

Section 3.7 also says why semaphores are cheap: "with compatible
rates ... the semaphores never block".  The common acquire is therefore
the uncontended one, and it has a fast path: the unit is taken at once,
the role's acquire count is bumped, and a small pre-granted waitable is
returned.  No blocked span is opened (a zero-length span adds nothing
to the total), and the waiter resumes after the same two same-instant
hops as a contended grant -- the grant hop, then the resume hop -- both
through the simulator's ready queue, so the firing order is the same.

A waiter that detaches before its grant -- an interrupted process, an
:class:`~repro.sim.scheduler.AnyOf` loss -- leaves the FIFO and, on a
:class:`TimedSemaphore`, ends its blocked span at that instant, so a
later release or put is never handed to a process that stopped waiting.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.obs.registry import SpanAccumulator
from repro.sim.scheduler import (
    Event,
    SimulationError,
    Simulator,
    Waitable,
    _noop_detach,
)


class _Acquire(Waitable):
    """One semaphore acquire: queued, granted, then ready.

    Ready, it resumes its single waiter one same-instant hop later, as a
    set :class:`~repro.sim.scheduler.Event` would.  ``token`` is the open
    blocked span of a contended :class:`TimedSemaphore` acquire.
    """

    __slots__ = ("sem", "token", "callback", "queued", "ready")

    def __init__(self, sem: "Semaphore", ready: bool = False):
        self.sem = sem
        self.token: Optional[int] = None
        self.callback: Optional[Callable[[Any], None]] = None
        self.queued = False
        self.ready = ready

    def fire(self) -> None:
        """Become ready; the waiter, if any, resumes one hop later."""
        self.ready = True
        callback = self.callback
        if callback is not None:
            self.callback = None
            self.sem.sim.call_soon(callback, None)

    def _await(self, callback: Callable[[Any], None]) -> Callable[[], None]:
        if self.ready:
            self.sem.sim.call_soon(callback, None)
            return _noop_detach
        if self.callback is not None:
            raise SimulationError("semaphore acquire already has a waiter")
        self.callback = callback
        return self._detach

    def _detach(self) -> None:
        self.callback = None
        if self.queued:
            self.queued = False
            self.sem._withdraw(self)


class Semaphore:
    """A counting semaphore for simulation processes.

    ``yield sem.acquire()`` blocks until a unit is available;
    :meth:`release` wakes the longest-waiting acquirer (FIFO).
    """

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise SimulationError(f"negative semaphore value {value}")
        self.sim = sim
        self._value = value
        self._waiters: Deque[_Acquire] = deque()

    @property
    def value(self) -> int:
        return self._value

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Waitable:
        """Return a waitable that fires when a unit has been granted."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return _Acquire(self, ready=True)
        return self._park(_Acquire(self))

    def _park(self, acq: _Acquire) -> _Acquire:
        acq.queued = True
        self._waiters.append(acq)
        return acq

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True when a unit was taken."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return True
        return False

    def release(self) -> None:
        if self._waiters:
            acq = self._waiters.popleft()
            acq.queued = False
            self._grant(acq)
        else:
            self._value += 1

    def _grant(self, acq: _Acquire) -> None:
        acq.fire()

    def _withdraw(self, acq: _Acquire) -> None:
        self._waiters.remove(acq)


class TimedSemaphore(Semaphore):
    """Semaphore that accumulates per-role blocking time.

    The orchestration service reads :meth:`blocked_time` to attribute
    regulation failures to the application or the protocol (paper
    section 6.3.1.2).  Roles are arbitrary strings, conventionally
    ``"application"`` and ``"protocol"``.
    """

    def __init__(self, sim: Simulator, value: int = 1):
        super().__init__(sim, value)
        # All per-role accounting lives in one windowed accumulator
        # (repro.obs): open waits are re-based by reset_stats() and
        # in-progress time is included in blocked_time(), exactly the
        # sampling semantics section 6.3.1.2 needs.
        self._waits = SpanAccumulator("semaphore.blocked", self._now)

    def _now(self) -> float:
        return self.sim.now

    def acquire(self, role: str = "unknown") -> Waitable:  # type: ignore[override]
        if self._value > 0 and not self._waiters:
            # Section 3.7's never-blocking case: grant now, then the
            # grant hop.
            self._value -= 1
            self._waits.mark(role)
            acq = _Acquire(self)
            self.sim.call_soon(acq.fire)
            return acq
        acq = _Acquire(self)
        acq.token = self._waits.begin(role)
        return self._park(acq)

    def _grant(self, acq: _Acquire) -> None:
        self.sim.call_soon(self._granted, acq)

    def _granted(self, acq: _Acquire) -> None:
        self._waits.end(acq.token)
        acq.fire()

    def _withdraw(self, acq: _Acquire) -> None:
        super()._withdraw(acq)
        self._waits.end(acq.token)

    def blocked_time(self, role: str) -> float:
        """Total virtual seconds ``role`` has spent blocked so far.

        Includes waits still in progress -- the orchestrator samples at
        interval boundaries while threads may be parked.
        """
        return self._waits.total(role)

    def acquire_count(self, role: str) -> int:
        return self._waits.count(role)

    def reset_stats(self) -> None:
        """Zero the accumulated statistics (used at interval boundaries).

        In-progress waits restart their accounting from now.
        """
        self._waits.reset()


class _Parked(Event):
    """An :class:`~repro.sim.scheduler.Event` parked in a :class:`Queue`'s
    getter or putter FIFO (``item`` is a blocked put's item).

    When its last waiter detaches before it is set, it leaves the FIFO.
    """

    def __init__(self, sim: Simulator, fifo: Deque["_Parked"], item: Any = None):
        super().__init__(sim)
        self._fifo = fifo
        self.item = item
        fifo.append(self)

    def _discard(self, callback) -> None:
        super()._discard(callback)
        if not self._is_set and not self._callbacks:
            self._fifo.remove(self)


class QueueFull(Exception):
    """Raised by :meth:`Queue.put_nowait` on a full bounded queue."""


class Queue:
    """A FIFO queue between simulation processes.

    ``capacity=None`` makes the queue unbounded.  ``yield q.get()``
    blocks until an item is available; ``yield q.put(item)`` blocks while
    the queue is full.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"queue capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Parked] = deque()
        self._putters: Deque[_Parked] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Waitable:
        """Waitable put; fires once the item is enqueued."""
        if self.full:
            return _Parked(self.sim, self._putters, item)
        ev = Event(self.sim)
        self._enqueue(item)
        ev.set(None)
        return ev

    def put_nowait(self, item: Any) -> None:
        if self.full:
            raise QueueFull()
        self._enqueue(item)

    def _enqueue(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().set(item)
        else:
            self._items.append(item)

    def get(self) -> Waitable:
        """Waitable get; fires with the dequeued item."""
        if not self._items:
            return _Parked(self.sim, self._getters)
        ev = Event(self.sim)
        item = self._items.popleft()
        self._admit_putter()
        ev.set(item)
        return ev

    def get_nowait(self) -> Any:
        if not self._items:
            raise IndexError("get_nowait on empty queue")
        item = self._items.popleft()
        self._admit_putter()
        return item

    def _admit_putter(self) -> None:
        if self._putters and not self.full:
            ev = self._putters.popleft()
            self._enqueue(ev.item)
            ev.set(None)

    def clear(self) -> int:
        """Discard all queued items; returns how many were dropped."""
        dropped = len(self._items)
        self._items.clear()
        while self._putters and not self.full:
            self._admit_putter()
        return dropped
