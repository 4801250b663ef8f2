"""Tests for session bookkeeping and the Section V guarantee machinery."""

import pytest

from repro.errors import SessionError
from repro.sim import Environment
from repro.views.definition import ViewDefinition
from repro.views.outbox import NodeOutbox
from repro.views.session import SessionManager

VIEW = ViewDefinition("V", "T", "vk", ("m",))


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def outbox(env):
    return NodeOutbox(env, 0, capacity=8)


def put(env, manager, session, outbox, resolves_at):
    """Register a session Put whose outbox record resolves at
    ``resolves_at`` (distinct base keys: nothing coalesces)."""
    record = outbox.append(VIEW, "T", f"k{outbox.appended}", {"m": 1}, 100,
                           (None, None), env.timeout(resolves_at))
    manager.register_offset(session, VIEW.name, outbox, record.seq)


def test_sessions_get_distinct_ids(env):
    manager = SessionManager(env)
    a = manager.create(0)
    b = manager.create(1)
    assert a.session_id != b.session_id
    assert a.coordinator_id == 0
    assert b.coordinator_id == 1


def test_register_and_auto_discard(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, manager, session, outbox, 5.0)
    assert session.pending_count == 1
    env.run()
    assert session.pending_count == 0


def test_barrier_blocks_until_pending_complete(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, manager, session, outbox, 5.0)
    put(env, manager, session, outbox, 9.0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [9.0]
    assert manager.blocked_gets == 1


def test_barrier_without_pending_is_instant(env):
    manager = SessionManager(env)
    session = manager.create(0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [0.0]
    assert manager.blocked_gets == 0


def test_barrier_is_per_view(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, manager, session, outbox, 100.0)
    log = []

    def getter():
        yield from manager.barrier(session, "OTHER")
        log.append(env.now)

    env.process(getter())
    env.run()
    assert log == [0.0]


def test_barrier_snapshot_ignores_later_registrations(env, outbox):
    """The barrier waits only for propagations pending at Get time."""
    manager = SessionManager(env)
    session = manager.create(0)
    put(env, manager, session, outbox, 3.0)
    log = []

    def getter():
        yield from manager.barrier(session, "V")
        log.append(env.now)

    def late_putter():
        yield env.timeout(1.0)
        put(env, manager, session, outbox, 50.0)

    env.process(getter())
    env.process(late_putter())
    env.run()
    assert log == [3.0]


def test_register_on_ended_session_rejected(env, outbox):
    manager = SessionManager(env)
    session = manager.create(0)
    manager.end(session)
    with pytest.raises(SessionError):
        put(env, manager, session, outbox, 1.0)
