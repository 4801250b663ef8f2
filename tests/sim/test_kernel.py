"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import InterruptError, ProcessError, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.0)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.0]


def test_timeout_carries_value():
    env = Environment()
    result = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        result.append(value)

    env.process(proc())
    env.run()
    assert result == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("late", 5.0))
    env.process(proc("early", 1.0))
    env.process(proc("middle", 3.0))
    env.run()
    assert order == [("early", 1.0), ("middle", 3.0), ("late", 5.0)]


def test_same_time_events_fire_fifo():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_time_with_no_events_advances_clock():
    env = Environment()
    env.run(until=100.0)
    assert env.now == 100.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return 42

    process = env.process(proc())
    assert env.run(until=process) == 42
    assert env.now == 2.0


def test_process_return_value_via_yield():
    env = Environment()
    got = []

    def child():
        yield env.timeout(1.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        got.append(result)

    env.process(parent())
    env.run()
    assert got == ["child-result"]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    got = []

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(child_proc):
        yield env.timeout(5.0)
        result = yield child_proc
        got.append((result, env.now))

    child_proc = env.process(child())
    env.process(parent(child_proc))
    env.run()
    assert got == [("done", 5.0)]


def test_exception_in_child_propagates_to_waiting_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_escalates():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ProcessError):
        env.run()


def test_event_succeed_delivers_value():
    env = Environment()
    got = []
    event = env.event()

    def waiter():
        value = yield event
        got.append((value, env.now))

    def trigger():
        yield env.timeout(3.0)
        event.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == [("payload", 3.0)]


def test_event_fail_raises_in_waiter():
    env = Environment()
    caught = []
    event = env.event()

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1.0)
        event.fail(RuntimeError("failed-event"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["failed-event"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_multiple_waiters_on_one_event():
    env = Environment()
    got = []
    event = env.event()

    def waiter(name):
        value = yield event
        got.append((name, value))

    env.process(waiter("a"))
    env.process(waiter("b"))

    def trigger():
        yield env.timeout(1.0)
        event.succeed("x")

    env.process(trigger())
    env.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_all_of_waits_for_every_event():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(5.0, value="five")
        results = yield env.all_of([t1, t2])
        got.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert got == [(5.0, ["five", "one"])]


def test_any_of_fires_on_first_event():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        results = yield env.any_of([t1, t2])
        got.append((env.now, list(results.values())))

    env.process(proc())
    env.run()
    assert got == [(1.0, ["fast"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    got = []

    def proc():
        yield env.all_of([])
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == [0.0]


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
            log.append("finished")
        except InterruptError as exc:
            log.append(("interrupted", exc.cause, env.now))

    def attacker(target):
        yield env.timeout(2.0)
        target.interrupt("because")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [("interrupted", "because", 2.0)]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    def late(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(quick())
    env.process(late(target))
    with pytest.raises(ProcessError):
        env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except InterruptError:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def attacker(target):
        yield env.timeout(2.0)
        target.interrupt()

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [3.0]


def test_yielding_non_event_fails_process():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(ProcessError):
        env.run()


def test_is_alive_tracks_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    process = env.process(proc())
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_nested_process_chain():
    env = Environment()

    def leaf():
        yield env.timeout(1.0)
        return 1

    def middle():
        value = yield env.process(leaf())
        yield env.timeout(1.0)
        return value + 1

    def root():
        value = yield env.process(middle())
        return value + 1

    process = env.process(root())
    assert env.run(until=process) == 3
    assert env.now == 2.0


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_determinism_same_seedless_structure():
    """Two identical simulations produce identical event orderings."""

    def build_and_run():
        env = Environment()
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append(name)

        for i in range(20):
            env.process(proc(f"p{i}", (i * 7) % 5))
        env.run()
        return order

    assert build_and_run() == build_and_run()


def test_unconsumed_failed_event_escalates():
    env = Environment()
    env.event().fail(RuntimeError("nobody is waiting"))
    with pytest.raises(ProcessError):
        env.run()


def test_defused_failed_event_does_not_escalate():
    """Event.defuse() marks an expected failure as handled: the kernel
    must not escalate it even with no waiter consuming the failure."""
    env = Environment()
    event = env.event()
    assert event.defuse() is event  # chains
    event.fail(RuntimeError("expected outcome"))
    env.run()  # would raise ProcessError without the defuse


def test_defuse_after_trigger_also_suppresses_escalation():
    env = Environment()
    event = env.event()
    event.fail(RuntimeError("late defuse"))
    event.defuse()
    env.run()


# ---------------------------------------------------------------------------
# Event.settle: inline delivery
# ---------------------------------------------------------------------------


def test_settle_runs_callbacks_inline_when_nothing_is_due():
    env = Environment()
    watched = []
    env.set_event_watcher(watched.append)
    log = []
    event = env.event()
    event.callbacks.append(lambda e: log.append(("settled", env.now, e.value)))
    timer = env.timeout(1.0)

    def fire(_timer):
        event.settle("v")
        # Callbacks already ran: no heap round trip.
        log.append(("after", event.processed))

    timer.callbacks.append(fire)
    env.timeout(2.0)
    env.run()
    assert log == [("settled", 1.0, "v"), ("after", True)]
    assert event not in watched   # never popped off the heap


def test_settle_falls_back_to_heap_order_when_another_event_is_due():
    """An event due at the same instant runs first, exactly as if the
    settled event had been triggered with succeed()."""
    def run(trigger):
        env = Environment()
        log = []
        event = env.event()
        event.callbacks.append(lambda _e: log.append("settled"))
        env.timeout(1.0).callbacks.append(lambda _t: trigger(event))
        env.timeout(1.0).callbacks.append(lambda _t: log.append("peer"))
        env.run()
        return log

    assert run(lambda event: event.settle()) == ["peer", "settled"]
    assert run(lambda event: event.succeed()) == ["peer", "settled"]


def test_settle_failure_reaches_waiter_and_escalates_unhandled():
    env = Environment()
    caught = []
    event = env.event()

    def waiter():
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.timeout(1.0).callbacks.append(
        lambda _t: event.settle(ValueError("boom"), ok=False))
    env.run()
    assert caught == ["boom"]

    lonely = env.event()
    env.timeout(1.0).callbacks.append(
        lambda _t: lonely.settle(ValueError("nobody"), ok=False))
    with pytest.raises(ProcessError):
        env.run()


def test_settle_rejects_misuse():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().settle("not an exception", ok=False)
    done = env.event()
    done.succeed()
    with pytest.raises(SimulationError):
        done.settle()

    def proc():
        env.event().settle()
        yield env.timeout(1.0)

    process = env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=process)
