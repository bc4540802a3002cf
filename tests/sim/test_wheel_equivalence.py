"""Wheel-vs-heap equivalence: the firing order is *identical*.

The timer wheel replaced a single global heap ordered by
``(when, priority, seq)``.  Because the bucket width is a power of two,
the bucket index is a monotone function of ``when`` and the wheel's
dispatch order is exactly the old heap's order -- not merely
"equivalent up to ties".  These tests drive randomized
schedule/cancel/reschedule programs through the real kernel and
through a reference model (one sorted list, same key), and assert the
firing sequences match element for element.

The reference model implements the documented pre-wheel semantics:

- events fire in ``(when, priority, seq)`` order;
- ``cancel()`` is exact: a cancelled handle never fires;
- ``reschedule()`` supersedes: only the latest arming of a handle
  fires, with a fresh seq drawn at reschedule time;
- callbacks may schedule/cancel/reschedule during dispatch, including
  at the current instant;
- ``call_soon(fn)`` is a push at ``(now, 0, seq)``: the ready queue
  that serves it must fire exactly where such an entry would.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.scheduler import Simulator, TimerHandle


class _RefKernel:
    """Reference scheduler: one sorted list, (when, priority, seq) key."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []  # (when, priority, seq, token, ref-handle)

    def push(self, handle, when):
        # Every arming gets a fresh generation, so any older entry for
        # this handle -- cancelled *or* superseded -- can never fire.
        handle.gen += 1
        handle.live = True
        handle.when = when
        self._seq += 1
        self._entries.append((when, handle.priority, self._seq, handle.gen, handle))

    def cancel(self, handle):
        handle.live = False

    def call_soon(self, fn):
        self.push(_RefHandle(fn), self.now)

    def _live(self):
        return [e for e in self._entries if e[4].live and e[3] == e[4].gen]

    @property
    def pending_events(self):
        return len(self._live())

    def next_event_time(self):
        live = self._live()
        return min(live)[0] if live else None

    def step(self):
        live = self._live()
        if not live:
            return False
        entry = min(live)
        self._entries.remove(entry)
        self.now = entry[0]
        entry[4].live = False
        entry[4].fn()
        return True

    def run(self, until):
        while True:
            live = [e for e in self._entries
                    if e[4].live and e[3] == e[4].gen]
            if not live:
                break
            entry = min(live)
            if entry[0] > until:
                break
            self._entries.remove(entry)
            self.now = entry[0]
            entry[4].live = False
            entry[4].fn()
        self.now = max(self.now, until)


class _RefHandle:
    __slots__ = ("fn", "priority", "live", "gen", "when")

    def __init__(self, fn, priority=0):
        self.fn = fn
        self.priority = priority
        self.live = False
        self.gen = 0
        self.when = 0.0


def _random_program(seed: int, n_ops: int = 400):
    """A deterministic op list: (op, handle_index, delay, priority)."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        op = rng.choice(
            ["schedule", "schedule", "schedule", "cancel", "reschedule"]
        )
        handle_index = rng.randrange(40)
        # Mix of near-past-horizon, same-bucket, mid-wheel and
        # far-overflow delays so every region of the wheel is crossed.
        delay = rng.choice([
            0.0,
            rng.uniform(0.0, 1e-4),       # sub-bucket
            rng.uniform(0.0, 0.01),       # a few buckets
            rng.uniform(0.0, 3.9),        # across the wheel window
            rng.uniform(4.0, 50.0),       # overflow heap
        ])
        priority = rng.randrange(3)
        ops.append((op, handle_index, delay, priority))
    return ops


def _run_real(ops, until=60.0):
    sim = Simulator()
    fired: list = []
    handles: dict[int, TimerHandle] = {}
    priorities: dict[int, int] = {}

    def make_fn(index):
        def fn():
            fired.append((index, round(sim.now, 12)))
        return fn

    for step, (op, index, delay, priority) in enumerate(ops):
        when = delay + step * 1e-3  # spread arming times a little
        if op == "schedule":
            handle = handles.get(index)
            if handle is None or priorities[index] != priority:
                handle = TimerHandle(sim, make_fn(index), priority)
                handles[index] = handle
                priorities[index] = priority
            sim._push(handle, when)
        elif op == "cancel":
            handle = handles.get(index)
            if handle is not None:
                handle.cancel()
        else:  # reschedule
            handle = handles.get(index)
            if handle is not None:
                handle.reschedule(when)
    sim.run(until=until)
    return fired


def _run_ref(ops, until=60.0):
    kern = _RefKernel()
    fired: list = []
    handles: dict[int, _RefHandle] = {}

    def make_fn(index):
        def fn():
            fired.append((index, round(kern.now, 12)))
        return fn

    for step, (op, index, delay, priority) in enumerate(ops):
        when = delay + step * 1e-3
        if op == "schedule":
            handle = handles.get(index)
            if handle is None or handle.priority != priority:
                handle = _RefHandle(make_fn(index), priority)
                handles[index] = handle
            kern.push(handle, when)
        elif op == "cancel":
            handle = handles.get(index)
            if handle is not None:
                kern.cancel(handle)
        else:
            handle = handles.get(index)
            if handle is not None:
                kern.push(handle, when)
    kern.run(until)
    return fired


@pytest.mark.parametrize("seed", range(12))
def test_random_program_identical_firing_order(seed):
    ops = _random_program(seed)
    assert _run_real(ops) == _run_ref(ops)


@pytest.mark.parametrize("seed", range(12, 18))
def test_random_program_with_reentrant_callbacks(seed):
    """Callbacks that schedule/cancel during dispatch stay identical."""
    rng = random.Random(seed)
    n = 120

    def drive(sim_like, push, cancel, now):
        fired = []
        handles = []
        budget = [5] * n  # bound re-scheduling cascades (0-delay cycles)

        def make_fn(index):
            def fn():
                fired.append((index, round(now(), 12)))
                if budget[index] <= 0:
                    return
                budget[index] -= 1
                # Reentrant operations pre-drawn once (below), so real
                # and reference kernels perform the same ops.
                for op, target, delay in plans[index]:
                    if op == "s":
                        push(handles[target], now() + delay)
                    else:
                        cancel(handles[target])
            return fn

        for i in range(n):
            handles.append(make_handle(make_fn(i), i % 3))
        for i in range(n):
            push(handles[i], arm_times[i])
        return fired, handles

    # Pre-draw every random decision once so both kernels see the
    # exact same program.
    arm_times = [rng.uniform(0.0, 8.0) for _ in range(n)]
    plans = []
    for _ in range(n):
        plan = []
        for _ in range(rng.randrange(3)):
            plan.append((
                rng.choice(["s", "c"]),
                rng.randrange(n),
                rng.choice([0.0, 1e-5, 0.02, 5.0]),
            ))
        plans.append(plan)

    # Real kernel.
    sim = Simulator()
    make_handle = lambda fn, priority: TimerHandle(sim, fn, priority)  # noqa: E731
    real_fired, _ = drive(
        sim,
        lambda h, when: sim._push(h, max(when, sim.now)),
        lambda h: h.cancel(),
        lambda: sim.now,
    )
    sim.run(until=100.0)

    # Reference kernel.
    kern = _RefKernel()
    make_handle = lambda fn, priority: _RefHandle(fn, priority)  # noqa: E731
    ref_fired, _ = drive(
        kern,
        lambda h, when: kern.push(h, max(when, kern.now)),
        lambda h: kern.cancel(h),
        lambda: kern.now,
    )
    kern.run(100.0)

    assert real_fired == ref_fired


def test_mid_bucket_stop_and_resume():
    """run(until) stopping inside a bucket resumes without loss."""
    sim = Simulator()
    fired = []
    # Several events inside one ~2 ms bucket, distinct instants.
    for i in range(10):
        sim.call_after(1e-4 * i, lambda i=i: fired.append(i))
    sim.run(until=4.5e-4)
    assert fired == [0, 1, 2, 3, 4]
    sim.run(until=1.0)
    assert fired == list(range(10))


def test_same_instant_batch_priority_and_fifo_order():
    sim = Simulator()
    fired = []
    sim.call_at(0.5, lambda: fired.append("b0"), priority=1)
    sim.call_at(0.5, lambda: fired.append("a0"), priority=0)
    sim.call_at(0.5, lambda: fired.append("a1"), priority=0)
    sim.call_at(0.5, lambda: fired.append("b1"), priority=1)
    sim.run(until=1.0)
    assert fired == ["a0", "a1", "b0", "b1"]


def _ready_queue_program(seed: int):
    """Pre-drawn ops for one ready-queue fuzz run (shared by both kernels).

    ``plans[i]`` runs when handle ``i`` fires, ``soon_plans[k]`` when
    same-instant callback ``k`` runs; ``windows`` are the
    ``(until, ops between windows)`` steps of the outer driver.
    """
    rng = random.Random(seed)
    n_handles, n_soon = 48, 48

    def op():
        kind = rng.choice(["push", "push", "soon", "soon", "cancel"])
        if kind == "push":
            # 0.0 re-arms at now; the bucket width lands in the next
            # bucket; the others cross the wheel and the overflow heap.
            delay = rng.choice([0.0, 0.0, 1e-5, 2.0 ** -9, 0.02, 5.0])
            return ("push", rng.randrange(n_handles), delay)
        if kind == "soon":
            return ("soon", rng.randrange(n_soon), None)
        return ("cancel", rng.randrange(n_handles), None)

    priorities = [rng.choice([-1, 0, 0, 1, 2]) for _ in range(n_handles)]
    plans = [[op() for _ in range(rng.randrange(3))] for _ in range(n_handles)]
    soon_plans = [[op() for _ in range(rng.randrange(3))] for _ in range(n_soon)]
    arm_times = [rng.uniform(0.0, 3.0) for _ in range(n_handles)]
    windows = []
    t = 0.0
    for _ in range(25):
        # Window ends fall mid-bucket, so the clock is left past the
        # current bucket between windows.
        t += rng.choice([1e-4, 0.003, 0.05, 0.4])
        between = [op() for _ in range(rng.randrange(4))]
        between += [("step", None, None)] * rng.randrange(3)
        rng.shuffle(between)
        windows.append((t, between))
    return priorities, plans, soon_plans, arm_times, windows


def _drive_ready_queue(kernel, make_handle, push, cancel, call_soon, program):
    priorities, plans, soon_plans, arm_times, windows = program
    fired = []
    observed = []
    budget = {}

    def apply(ops):
        for kind, target, delay in ops:
            if kind == "push":
                push(handles[target], kernel_now() + delay)
            elif kind == "cancel":
                cancel(handles[target])
            elif kind == "soon":
                call_soon(soon_fns[target])
            else:
                observed.append(("step", kernel.step(), kernel_now()))

    def gated(key, ops):
        # Bounded cascades: every callback re-plans at most 4 times.
        budget[key] = budget.get(key, 4) - 1
        if budget[key] >= 0:
            apply(ops)

    def make_handle_fn(i):
        def fn():
            fired.append(("h", i, round(kernel_now(), 12)))
            gated(("h", i), plans[i])
        return fn

    def make_soon_fn(k):
        def fn():
            fired.append(("s", k, round(kernel_now(), 12)))
            gated(("s", k), soon_plans[k])
            observed.append(("in", kernel.pending_events, kernel_now(),
                             kernel.next_event_time()))
        return fn

    kernel_now = lambda: kernel.now  # noqa: E731
    handles = [make_handle(make_handle_fn(i), priorities[i])
               for i in range(len(priorities))]
    soon_fns = [make_soon_fn(k) for k in range(len(soon_plans))]
    for i, when in enumerate(arm_times):
        push(handles[i], when)
    for until, between in windows:
        kernel.run(until)
        apply(between)
        observed.append(("between", kernel.pending_events, kernel_now(),
                         kernel.next_event_time()))
    kernel.run(60.0)
    return fired, observed


@pytest.mark.parametrize("seed", range(30, 42))
def test_ready_queue_identical_to_push_at_now(seed):
    """call_soon from callbacks and between run(until) windows, mixed
    with priority -1/1/2 entries and handles re-armed at now: same
    firing sequence, step() results and pending counts as a push at
    ``(now, 0, seq)``.  ``next_event_time()`` is a lower bound, and
    inside a dispatch it is exactly ``now`` whenever work for the
    current instant is pending."""
    program = _ready_queue_program(seed)

    sim = Simulator()
    real_fired, real_obs = _drive_ready_queue(
        sim,
        lambda fn, priority: TimerHandle(sim, fn, priority),
        lambda h, when: sim._push(h, when),
        lambda h: h.cancel(),
        sim.call_soon,
        program,
    )
    kern = _RefKernel()
    ref_fired, ref_obs = _drive_ready_queue(
        kern,
        lambda fn, priority: _RefHandle(fn, priority),
        kern.push,
        kern.cancel,
        kern.call_soon,
        program,
    )

    assert real_fired == ref_fired
    assert len(real_obs) == len(ref_obs)
    for real, ref in zip(real_obs, ref_obs):
        if real[0] == "step":
            assert real == ref
            continue
        where, pending, now, bound = real
        assert (where, pending, now) == ref[:3]
        ref_next = ref[3]
        if ref_next is not None:
            assert bound <= ref_next
        if where == "in" and ref_next == now:
            assert bound == now
    assert any(kind == "s" for kind, _, _ in real_fired)
