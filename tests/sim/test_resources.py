"""Tests for Resource, Semaphore, and Store primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import CoreQueue, Environment, Resource, Semaphore, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def proc(name):
        yield resource.request()
        log.append((name, env.now))
        yield env.timeout(10.0)
        resource.release()

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    # a and b acquire at t=0; c waits until a releases at t=10.
    assert log == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_fifo_ordering():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def proc(name):
        yield resource.request()
        order.append(name)
        yield env.timeout(1.0)
        resource.release()

    for name in ("first", "second", "third"):
        env.process(proc(name))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_release_without_request_rejected():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_use_helper():
    env = Environment()
    resource = Resource(env, capacity=1)
    done = []

    def proc(name):
        yield from resource.use(5.0)
        done.append((name, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert done == [("a", 5.0), ("b", 10.0)]


def test_resource_counters():
    env = Environment()
    resource = Resource(env, capacity=1)
    snapshots = []

    def holder():
        yield resource.request()
        yield env.timeout(5.0)
        resource.release()

    def waiter():
        yield env.timeout(1.0)
        request = resource.request()
        snapshots.append((resource.in_use, resource.queue_length))
        yield request
        resource.release()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert snapshots == [(1, 1)]
    assert resource.in_use == 0
    assert resource.queue_length == 0


def test_resource_queueing_produces_serial_throughput():
    """With capacity 1 and service time s, k jobs take k*s total."""
    env = Environment()
    resource = Resource(env, capacity=1)
    finished = []

    def job():
        yield from resource.use(2.0)
        finished.append(env.now)

    for _ in range(5):
        env.process(job())
    env.run()
    assert finished == [2.0, 4.0, 6.0, 8.0, 10.0]


# ---------------------------------------------------------------------------
# CoreQueue
# ---------------------------------------------------------------------------


def test_core_queue_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CoreQueue(env, capacity=0)
    with pytest.raises(ValueError):
        CoreQueue(env, capacity=1).charge(-1.0)


def test_core_queue_schedules_fifo_at_arrival():
    """Two cores: the third job starts when the first core frees, and its
    completion time is known the moment it is charged."""
    env = Environment()
    cores = CoreQueue(env, capacity=2)
    finished = []
    for name, duration in (("a", 3.0), ("b", 5.0), ("c", 1.0)):
        cores.charge(duration).callbacks.append(
            lambda _event, name=name: finished.append((name, env.now)))
    # One heap event per job, already at its completion time.
    assert sorted(entry[0] for entry in env._heap) == [3.0, 4.0, 5.0]
    env.run()
    assert finished == [("a", 3.0), ("c", 4.0), ("b", 5.0)]


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------


def test_semaphore_initial_tokens():
    env = Environment()
    sem = Semaphore(env, tokens=2)
    acquired = []

    def proc(name):
        yield sem.acquire()
        acquired.append((name, env.now))

    env.process(proc("a"))
    env.process(proc("b"))
    env.process(proc("c"))

    def releaser():
        yield env.timeout(5.0)
        sem.release()

    env.process(releaser())
    env.run()
    assert acquired == [("a", 0.0), ("b", 0.0), ("c", 5.0)]


def test_semaphore_negative_tokens_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Semaphore(env, tokens=-1)


def test_semaphore_release_banks_tokens():
    env = Environment()
    sem = Semaphore(env, tokens=0)
    sem.release()
    sem.release()
    assert sem.tokens == 2
    got = []

    def proc():
        yield sem.acquire()
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [0.0]
    assert sem.tokens == 1


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        yield env.timeout(1.0)
        store.put("item")

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("item", 1.0)]


def test_store_get_of_queued_item_is_immediate():
    env = Environment()
    store = Store(env)
    store.put("early")
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    env.process(consumer())
    env.run()
    assert got == [("early", 0.0)]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    for i in range(5):
        store.put(i)
    got = []

    def consumer():
        while len(got) < 5:
            item = yield store.get()
            got.append(item)

    env.process(consumer())
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_multiple_consumers_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    env.process(consumer("a"))
    env.process(consumer("b"))

    def producer():
        yield env.timeout(1.0)
        store.put(1)
        store.put(2)

    env.process(producer())
    env.run()
    assert got == [("a", 1), ("b", 2)]


def test_store_len_and_peek():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    assert store.peek() is None
    store.put("x")
    store.put("y")
    assert len(store) == 2
    assert store.peek() == "x"
