"""Discrete-event simulation kernel.

This module provides a small, deterministic, generator-based discrete-event
simulation framework in the style of SimPy, written from scratch for this
reproduction.  Coordinators, clients and view propagators run as
:class:`Process` coroutines over a shared :class:`Environment`; storage
nodes serve requests as callback chains on plain events (see
:mod:`repro.cluster.node`), which costs no process per message.

Core concepts
-------------

``Environment``
    Owns the virtual clock and the event heap.  ``env.run(until=...)``
    executes scheduled events in timestamp order.

``Event``
    A one-shot occurrence.  Processes wait on events by ``yield``-ing them.
    Events carry a value (or an exception) once triggered.

``Process``
    Wraps a generator.  Each ``yield`` suspends the process until the yielded
    event fires; the event's value is returned from the ``yield`` expression
    (or its exception is raised there).  A process is itself an event that
    fires when the generator finishes, so processes can wait on each other.

``Timeout``
    An event that fires after a fixed virtual-time delay.

``AllOf`` / ``AnyOf``
    Condition events over several sub-events.

Determinism: events scheduled for the same instant fire in scheduling order
(FIFO, via a monotone sequence counter in the heap entry), so a simulation
with a fixed RNG seed is fully reproducible.

Inline delivery
---------------

:meth:`Event.settle` triggers an event and, when no other event is due
at the current instant, runs its callbacks on the spot instead of
pushing it on the heap.  That is the same order the heap would produce:
a NORMAL event triggered now sorts after everything already due now and
before everything due later, so if nothing is due now it would be the
very next event popped.  When something *is* due now, ``settle`` falls
back to :meth:`Event.succeed` / :meth:`Event.fail`, the same heap
position as before.  The equivalence needs one more condition, which
callers keep: ``settle`` must be the last action of a callback the kernel
dispatched (popped off the heap, or itself run inline by ``settle``), and
that callback must be its event's last one.  Anything the caller did
after ``settle`` — or a later callback of the same event — would
otherwise run *after* the settled event's callbacks instead of before.
Calling it from inside a running process is an error: the process is
mid-step, and resuming another process inline would interleave them.
The RPC path (:mod:`repro.cluster.network`) uses it at each hand-off —
handler result to network, response to waiters — which saves a heap
event at each.

Performance notes: this kernel is the hot path of every benchmark
(``perfbench/run.py``; ``python -m repro.bench``, topic
``kernel_events``).  Event classes are ``__slots__``-based,
:class:`Timeout` initializes itself without chaining through
``Event.__init__``, and :meth:`Environment.run` drains the heap in an
inlined loop (no per-event ``step()`` call, locals bound outside the
loop).  Inline delivery (above) removes heap round trips altogether.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import InterruptError, ProcessError, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "PENDING",
]


class _Pending:
    """Sentinel for 'event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()

# Scheduling priorities: URGENT events (process resumptions) run before
# NORMAL events scheduled for the same instant.  This matches SimPy and keeps
# causality intuitive.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot simulation event.

    An event moves through three phases: *pending* (created), *triggered*
    (given a value or exception and placed on the event heap), and
    *processed* (its callbacks have run).  Waiting processes register
    callbacks; the kernel invokes them when the event is popped off the heap.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        # True once a failure value was consumed by some waiter, so the
        # kernel does not escalate an unhandled failure.
        self._defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._eid += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiter that ``yield``s this event will have the exception raised
        at the yield point.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heapq.heappush(env._heap, (env._now, NORMAL, env._eid, self))
        return self

    def settle(self, value: Any = None, ok: bool = True) -> "Event":
        """Trigger the event, running its callbacks now if nothing else
        is due at this instant.

        With ``ok`` true this is :meth:`succeed` (``value`` is the
        result), otherwise :meth:`fail` (``value`` is the exception).
        If another event is due at the current time the event is
        scheduled exactly as those methods would; otherwise it is
        processed inline — callbacks run, then an unconsumed failure
        escalates as :class:`ProcessError` — without a heap round trip
        and without passing the event watcher.  Only call it as the last
        action of a kernel-dispatched callback that is its event's last
        callback, never from inside a running process (see the module
        docstring for why that keeps event order).
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not ok and not isinstance(value, BaseException):
            raise TypeError(f"{value!r} is not an exception")
        env = self.env
        if env._active is not None:
            raise SimulationError(
                "settle() called from inside a running process")
        self._ok = ok
        self._value = value
        heap = env._heap
        if heap and heap[0][0] <= env._now:
            env._eid += 1
            heapq.heappush(heap, (env._now, NORMAL, env._eid, self))
            return self
        callbacks = self.callbacks
        self.callbacks = None
        for callback in callbacks:
            callback(self)
        if not ok and not self._defused:
            raise ProcessError(
                f"unhandled failure in {self!r}: {value!r}") from value
        return self

    def defuse(self) -> "Event":
        """Mark a failure of this event as handled.

        The kernel escalates any *failed* event whose failure no waiter
        consumed (errors must never pass silently).  ``defuse()`` opts an
        event out of that escalation: call it when a failure is an
        expected outcome that dedicated bookkeeping already records —
        e.g. a propagation completion that nobody is obligated to
        consume.  Safe to call in any phase (before or after
        triggering); returns ``self`` for chaining.
        """
        self._defused = True
        return self

    # -- callbacks ---------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ (timeouts are the most-allocated event).
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self.delay = delay
        env._eid += 1
        heapq.heappush(env._heap, (env._now + delay, NORMAL, env._eid, self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        # Inlined Event.__init__ (one Initialize per process start).
        self.env = env
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        env._eid += 1
        heapq.heappush(env._heap, (env._now, URGENT, env._eid, self))


class Interruption(Event):
    """Internal event delivering an :class:`InterruptError` to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        self._ok = False
        self._value = InterruptError(cause)
        self._defused = True
        self.process = process
        self.callbacks = [self._deliver]
        self.env._schedule(self, URGENT, 0.0)

    def _deliver(self, event: "Event") -> None:
        process = self.process
        if process.is_alive:
            # Detach the process from whatever it was waiting on, then
            # resume it with the interrupt exception.
            target = process._target
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(process._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
            process._target = None
            process._resume(event)


class Process(Event):
    """A running simulation coroutine.

    The wrapped generator ``yield``s events; the process suspends until each
    fires.  The process is itself an event that triggers when the generator
    returns (success, with the return value) or raises (failure).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError(f"{self.name} has already terminated")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        Interruption(self, cause)

    # -- kernel interface ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active = self
        while True:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    result = self._generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                self._target = None
                self._ok = True
                self._value = stop.value
                env._eid += 1
                heapq.heappush(env._heap,
                               (env._now, NORMAL, env._eid, self))
                break
            except BaseException as exc:
                self._target = None
                self._ok = False
                self._value = exc
                env._eid += 1
                heapq.heappush(env._heap,
                               (env._now, NORMAL, env._eid, self))
                break

            if not isinstance(result, Event):
                exc2 = SimulationError(
                    f"process {self.name!r} yielded a non-event: {result!r}")
                event = Event(env)
                event._ok = False
                event._value = exc2
                continue
            callbacks = result.callbacks
            if callbacks is not None:
                # Event not yet processed: wait for it (append directly —
                # add_callback's processed-check was done just above).
                callbacks.append(self._resume)
                self._target = result
                break
            # Event already processed: loop and resume immediately with it.
            event = result

        env._active = None


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.add_callback(self._check)
        # Empty condition triggers immediately.
        if not self._events and not self.triggered:
            self.succeed(self._result())

    def _result(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event.callbacks is None and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._result())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers when every sub-event has triggered (fails fast on failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self._events)


class AnyOf(_Condition):
    """Triggers when at least one sub-event has triggered."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Environment:
    """The simulation environment: virtual clock plus event heap."""

    __slots__ = ("_now", "_heap", "_eid", "_active", "_watcher")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active: Optional[Process] = None
        self._watcher: Optional[Callable[[Event], None]] = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    # -- fault injection / observation ---------------------------------------

    def set_event_watcher(
            self, watcher: Optional[Callable[[Event], None]]) -> None:
        """Install (or clear, with ``None``) the per-event watcher.

        The watcher is invoked with each event as it is popped off the
        heap, *before* its callbacks run — the one point through which
        every simulated occurrence passes.  It is the kernel's fault
        -injection seam: the scenario harness uses it to bound fuzzed
        schedules by event count (a generated fault schedule may never
        quiesce) and to observe scheduling without instrumenting every
        subsystem.  An exception raised by the watcher aborts
        :meth:`run` and propagates to the caller.  Watching costs one
        ``None`` check per event when disabled.
        """
        self._watcher = watcher

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling / running -------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heapq.heappop(self._heap)
        self._now = when
        if self._watcher is not None:
            self._watcher(event)
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An event failed and nobody was waiting: escalate so errors
            # never pass silently.
            exc = event._value
            raise ProcessError(
                f"unhandled failure in {event!r}: {exc!r}") from exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until the clock reaches it), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        stop_at: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                # Already finished: report its outcome without running.
                if not stop_event._ok:
                    stop_event._defused = True
                    raise stop_event._value
                return stop_event._value
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} is in the past (now={self._now})")
        try:
            # Hot loop: ``step()`` inlined with locals bound once.  Any
            # change here must be mirrored in :meth:`step`.  The watcher
            # is bound once too: installing one mid-run takes effect on
            # the next ``run()`` call.
            heap = self._heap
            pop = heapq.heappop
            watcher = self._watcher
            while heap:
                if stop_at is not None and heap[0][0] > stop_at:
                    self._now = stop_at
                    break
                when, _prio, _eid, event = pop(heap)
                self._now = when
                if watcher is not None:
                    watcher(event)
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    raise ProcessError(
                        f"unhandled failure in {event!r}: {exc!r}") from exc
        except StopSimulation as stop:
            fired = stop.args[0]
            if not fired._ok:
                fired._defused = True
                raise fired._value
            return fired._value
        if stop_event is not None:
            raise SimulationError(
                "run(until=event) finished but the event never triggered")
        if stop_at is not None and self._now < stop_at:
            self._now = stop_at
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event)
