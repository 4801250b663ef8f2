"""Property-based tests for the simulation kernel and resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CoreQueue, Environment, Resource, Semaphore, Store


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                 allow_nan=False), min_size=1, max_size=30))
def test_events_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=20))
def test_sequential_timeouts_sum(delays):
    env = Environment()

    def proc():
        for delay in delays:
            yield env.timeout(delay)
        return env.now

    process = env.process(proc())
    result = env.run(until=process)
    assert abs(result - sum(delays)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                  min_size=1, max_size=25),
)
def test_resource_never_exceeds_capacity(capacity, jobs):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    concurrency = {"current": 0, "peak": 0}

    def job(duration):
        yield resource.request()
        concurrency["current"] += 1
        concurrency["peak"] = max(concurrency["peak"],
                                  concurrency["current"])
        yield env.timeout(duration)
        concurrency["current"] -= 1
        resource.release()

    for duration in jobs:
        env.process(job(duration))
    env.run()
    assert concurrency["peak"] <= capacity
    assert concurrency["current"] == 0
    assert resource.in_use == 0


@settings(max_examples=40, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    jobs=st.lists(st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
                  min_size=2, max_size=15),
)
def test_resource_total_work_conserved(capacity, jobs):
    """Makespan of a saturated FIFO server is at least total/capacity and
    at most total (single lane)."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def job(duration):
        yield from resource.use(duration)

    for duration in jobs:
        env.process(job(duration))
    env.run()
    total = sum(jobs)
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9


# Coarse values make same-instant arrivals and tied completions common.
_ARRIVALS = st.one_of(st.integers(min_value=0, max_value=8).map(lambda i: i * 0.5),
                      st.floats(min_value=0.0, max_value=5.0,
                                allow_nan=False))
_DURATIONS = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.0]),
                       st.floats(min_value=0.0, max_value=3.0,
                                 allow_nan=False))


def _resource_schedule(capacity, jobs, slowdown):
    """Reference: request() -> timeout -> release() on a Resource."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    done = []

    def job(index, arrival, duration):
        yield env.timeout(arrival)
        yield resource.request()
        yield env.timeout(duration * slowdown)
        resource.release()
        done.append((index, env.now))

    for index, (arrival, duration) in enumerate(jobs):
        env.process(job(index, arrival, duration))
    env.run()
    return done


def _core_queue_schedule(capacity, jobs, slowdown):
    env = Environment()
    cores = CoreQueue(env, capacity=capacity)
    done = []

    def arrive(index, duration):
        def charge(_timer):
            cores.charge(duration * slowdown).callbacks.append(
                lambda _event: done.append((index, env.now)))
        return charge

    for index, (arrival, duration) in enumerate(jobs):
        env.timeout(arrival).callbacks.append(arrive(index, duration))
    env.run()
    return done


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=5),
    jobs=st.lists(st.tuples(_ARRIVALS, _DURATIONS), min_size=1, max_size=30),
    slowdown=st.one_of(st.just(1.0), st.sampled_from([1.5, 2.0, 3.0]),
                       st.floats(min_value=1.0, max_value=4.0,
                                 allow_nan=False)),
)
def test_core_queue_matches_resource_schedule(capacity, jobs, slowdown):
    """The arrival-time queue reproduces the Resource's FIFO schedule:
    exactly equal per-job completion times, in the same order."""
    assert (_core_queue_schedule(capacity, jobs, slowdown)
            == _resource_schedule(capacity, jobs, slowdown))


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            store.put(item)
            yield env.timeout(0.1)

    def consumer():
        for _ in items:
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.integers(min_value=0, max_value=5),
    acquirers=st.integers(min_value=1, max_value=10),
    releases=st.integers(min_value=0, max_value=10),
)
def test_semaphore_conservation(tokens, acquirers, releases):
    env = Environment()
    sem = Semaphore(env, tokens=tokens)
    acquired = []

    def proc(i):
        yield sem.acquire()
        acquired.append(i)

    for i in range(acquirers):
        env.process(proc(i))

    def releaser():
        for _ in range(releases):
            yield env.timeout(1.0)
            sem.release()

    env.process(releaser())
    env.run()
    assert len(acquired) == min(acquirers, tokens + releases)
    assert sem.tokens == max(0, tokens + releases - acquirers)
