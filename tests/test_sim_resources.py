"""Unit tests for repro.sim.resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, SimulationError


def test_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_immediate_grant_under_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def proc(env, label):
        req = yield from res.acquire()
        log.append((env.now, label, "got"))
        yield env.timeout(10.0)
        res.release(req)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == [(0.0, "a", "got"), (0.0, "b", "got")]


def test_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def proc(env, label, start):
        yield env.timeout(start)
        req = yield from res.acquire()
        grants.append(label)
        yield env.timeout(5.0)
        res.release(req)

    env.process(proc(env, "first", 0.0))
    env.process(proc(env, "second", 1.0))
    env.process(proc(env, "third", 2.0))
    env.run()
    assert grants == ["first", "second", "third"]


def test_release_grants_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def proc(env, hold):
        req = yield from res.acquire()
        times.append(env.now)
        yield env.timeout(hold)
        res.release(req)

    env.process(proc(env, 10.0))
    env.process(proc(env, 10.0))
    env.run()
    assert times == [0.0, 10.0]


def test_count_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        req = yield from res.acquire()
        yield env.timeout(100.0)
        res.release(req)

    def observer(env):
        yield env.timeout(1.0)
        assert res.count == 1
        assert res.queue_length == 0
        res.request()  # never granted during hold
        yield env.timeout(1.0)
        assert res.queue_length == 1

    env.process(holder(env))
    env.process(observer(env))
    env.run(until=50.0)


def test_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder(env):
        req = yield from res.acquire()
        yield env.timeout(10.0)
        res.release(req)

    def canceller(env):
        yield env.timeout(1.0)
        req = res.request()
        yield env.timeout(1.0)
        req.cancel()

    def waiter(env):
        yield env.timeout(3.0)
        req = yield from res.acquire()
        granted.append(env.now)
        res.release(req)

    env.process(holder(env))
    env.process(canceller(env))
    env.process(waiter(env))
    env.run()
    # waiter gets the slot at t=10, not blocked behind a cancelled request
    assert granted == [10.0]


def test_release_ungranted_request_is_cancel():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        req = yield from res.acquire()
        yield env.timeout(10.0)
        res.release(req)

    def proc(env):
        yield env.timeout(1.0)
        req = res.request()  # queued behind holder
        res.release(req)  # withdrawn before grant
        assert res.queue_length == 0

    env.process(holder(env))
    env.process(proc(env))
    env.run()


def test_round_robin_emerges_from_fifo_requeue():
    """Re-requesting after each quantum interleaves two contenders fairly."""
    env = Environment()
    res = Resource(env, capacity=1)
    schedule = []

    def worker(env, label, quanta):
        for _ in range(quanta):
            req = yield from res.acquire()
            schedule.append(label)
            yield env.timeout(1.0)
            res.release(req)

    env.process(worker(env, "A", 3))
    env.process(worker(env, "B", 3))
    env.run()
    assert schedule == ["A", "B", "A", "B", "A", "B"]


# -- the slot contract: no __dict__, no wait queue until someone waits ----


def test_resource_has_no_instance_dict():
    res = Resource(Environment(), capacity=1, name="lcpu0")
    assert not hasattr(res, "__dict__")
    with pytest.raises(AttributeError):
        res.label = "x"


def test_uncontended_resource_holds_no_wait_queue():
    env = Environment()
    res = Resource(env, capacity=2)

    def proc(env):
        for _ in range(3):
            req = yield from res.acquire()
            yield env.timeout(1.0)
            res.release(req)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert res._queue is None
    assert (res.count, res.queue_length) == (0, 0)
    held = [res.request(), res.request()]
    assert res._queue is None  # capacity 2: both granted, nobody waits
    waiting = res.request()
    assert res.queue_length == 1 and res._queue is not None
    res.release(held[0])
    assert waiting.triggered and res.queue_length == 0


_OPS = st.lists(
    st.one_of(
        st.just(("request", 0)),
        st.tuples(st.sampled_from(("release", "cancel")), st.integers(0, 63)),
    ),
    max_size=60,
)


@given(st.integers(min_value=1, max_value=3), _OPS)
@settings(max_examples=200, deadline=None)
def test_resource_matches_fifo_reference_model(capacity, ops):
    """Grant order, ``count`` and ``queue_length`` follow a plain FIFO.

    The reference keeps holders and waiters in two lists: a request
    joins the waiters, waiters are granted head first while a slot is
    free, releasing a holder frees its slot, and releasing or
    cancelling a waiter withdraws it (cancelling a holder does nothing).
    """
    res = Resource(Environment(), capacity=capacity)
    made: list = []
    holders: list = []
    waiters: list = []
    granted: list = []  # the resource's grant order, as observed
    expected: list = []  # the reference model's grant order

    def admit_waiters():
        while waiters and len(holders) < capacity:
            holders.append(waiters.pop(0))
            expected.append(holders[-1])

    for op, index in ops:
        if op == "request":
            req = res.request()
            made.append(req)
            waiters.append(req)
            admit_waiters()
        elif made:
            req = made[index % len(made)]
            if op == "release":
                res.release(req)
            else:
                req.cancel()
            if op == "release" and req in holders:
                holders.remove(req)
                admit_waiters()
            elif req in waiters:
                waiters.remove(req)
        granted += [r for r in made if r.triggered and r not in granted]
        assert granted == expected
        assert res.count == len(holders)
        assert res.queue_length == len(waiters)
