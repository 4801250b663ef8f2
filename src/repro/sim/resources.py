"""Shared-resource primitives for the simulation kernel.

``Resource`` models a server with fixed capacity: processes ``yield
resource.request()`` to acquire a slot, possibly queuing FIFO behind other
requests, and call ``resource.release()`` when done.

``CoreQueue`` is the same FIFO multi-server queue for work whose duration
is known when it arrives (the CPU cores of a storage node).  It computes
each job's start at arrival (the Kiefer–Wolfowitz recursion) and schedules
one completion event, so a queued job costs no grant event.  Queuing at
the cores is what produces realistic throughput saturation in the cluster
experiments.

``Store`` is an unbounded FIFO message queue: producers ``put`` items
immediately, consumers ``yield store.get()`` and block until an item is
available.  Nodes use stores as their network inboxes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.kernel import NORMAL, Environment, Event

__all__ = ["Resource", "CoreQueue", "Store", "Semaphore"]


class Resource:
    """A FIFO-queued resource with fixed ``capacity`` slots.

    Usage from a process::

        yield resource.request()
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()

    Note: do not interrupt a process while it is waiting on
    ``request()`` — its queued grant would later fire unowned and leak a
    slot.  (Nothing in this library interrupts resource waiters; the
    caveat matters only for user code combining ``Process.interrupt``
    with resources.)
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires when a slot is acquired."""
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release a held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float) -> Generator:
        """Process helper: acquire a slot, hold it ``duration``, release.

        Usage: ``yield from resource.use(service_time)``.

        Fast path: when a slot is free the grant is immediate (no grant
        event, no heap round trip) — the uncontended case is the common
        one, and this halves the kernel events per CPU charge.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
        else:
            yield self.request()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()


class CoreQueue:
    """A FIFO queue in front of ``capacity`` identical cores, scheduled at
    arrival.

    ``charge(duration)`` returns an event that fires when the job
    finishes.  Jobs start in arrival order on the earliest-free core:
    ``start = max(now, earliest core-free time)``, and that core is then
    free at ``start + duration``.  For a FIFO multi-server queue this is
    exactly the schedule :class:`Resource` produces with ``request()`` →
    ``timeout(duration)`` → ``release()`` — the same start and completion
    times, and the same completion order among its own jobs — but each
    job is one heap event (its completion), where a queued ``Resource``
    request costs two (the grant and the timer).  The completion is
    scheduled at the absolute end time, never as ``now + (end - now)``,
    which can round differently.  Jobs cannot be cancelled once charged.
    """

    __slots__ = ("env", "_free")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        # Min-heap of the times each core becomes free.
        self._free = [float("-inf")] * capacity

    def charge(self, duration: float) -> Event:
        """Queue a job of ``duration``; the event fires when it ends."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        env = self.env
        free = self._free
        start = free[0]
        if start < env._now:
            start = env._now
        end = start + duration
        heapq.heapreplace(free, end)
        event = Event(env)
        env._eid += 1
        heapq.heappush(env._heap, (end, NORMAL, env._eid, event))
        return event


class Semaphore:
    """A counting semaphore (capacity tokens, FIFO waiters).

    Unlike :class:`Resource`, the initial token count may be zero and tokens
    can be added beyond the initial count, which makes it suitable for
    back-pressure bookkeeping (e.g. bounding outstanding view propagations).
    """

    def __init__(self, env: Environment, tokens: int = 0):
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        self.env = env
        self._tokens = tokens
        self._waiters: deque[Event] = deque()

    @property
    def tokens(self) -> int:
        """Currently available tokens."""
        return self._tokens

    def acquire(self) -> Event:
        """Return an event that fires once a token is consumed."""
        event = self.env.event()
        if self._tokens > 0:
            self._tokens -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Add a token, waking the oldest waiter if any."""
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._tokens += 1


class Store:
    """Unbounded FIFO queue of items with blocking ``get``."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek(self) -> Optional[Any]:
        """The oldest queued item without removing it, or ``None``."""
        return self._items[0] if self._items else None
