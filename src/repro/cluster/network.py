"""Simulated network: latency, loss, partitions, RPC plumbing.

``Network.rpc`` delivers a request to a destination node after a sampled
one-way delay, has the node serve it (which charges the node's CPU), and
completes the returned event after the response's return delay.  If the
destination is down, partitioned away, or the message is lost, the event
simply never fires — exactly like a dropped packet; callers protect
themselves with quorum timeouts.

An RPC is a chain of callbacks, not a process: the delivery timer calls
:meth:`StorageNode.serve`, the node settles a reply event when its CPU
charge completes, and the response timer hands the value to the RPC
event's waiters.  Both hand-offs use :meth:`Event.settle`, which runs the
next step inline only when no other event is due at that instant and
otherwise schedules it where ``succeed()``/``fail()`` would — so the
event order is the one a process per message produced, with three heap
events per uncontended read instead of six.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Set, Tuple

from repro.sim.kernel import Environment, Event, Timeout
from repro.sim.latency import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.node import StorageNode

__all__ = ["Network"]

# Sentinel endpoint id for client machines (clients sit outside the ring).
CLIENT = -1


class Network:
    """Message fabric connecting clients and storage nodes."""

    def __init__(
        self,
        env: Environment,
        client_link: LatencyModel,
        replica_link: LatencyModel,
        rng: random.Random,
        message_loss: float = 0.0,
    ):
        self.env = env
        self.client_link = client_link
        self.replica_link = replica_link
        self._rng = rng
        self.message_loss = message_loss
        self._partitions: Set[FrozenSet[int]] = set()
        # Gray failures: per-endpoint delay inflation factors (slow NIC,
        # overloaded switch port) — the node answers, just late.
        self._slowdowns: Dict[int, float] = {}
        # Counters for observability/tests.
        self.messages_sent = 0
        self.messages_dropped = 0

    # -- partitions ----------------------------------------------------------

    def partition(self, a: int, b: int) -> None:
        """Block all traffic between endpoints ``a`` and ``b``."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: int, b: int) -> None:
        """Remove the partition between ``a`` and ``b`` if present."""
        self._partitions.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Remove every partition."""
        self._partitions.clear()

    def is_partitioned(self, a: int, b: int) -> bool:
        """True if traffic between ``a`` and ``b`` is blocked."""
        partitions = self._partitions
        return bool(partitions) and frozenset((a, b)) in partitions

    def active_partitions(self) -> List[Tuple[int, int]]:
        """All currently blocked endpoint pairs, as sorted tuples.

        The scenario harness's ``ClusterHealed`` invariant uses this to
        assert adversaries cleaned up after themselves."""
        return sorted(tuple(sorted(pair)) for pair in self._partitions)

    # -- gray failures -------------------------------------------------------

    def set_slowdown(self, endpoint_id: int, factor: float) -> None:
        """Inflate every message delay to/from ``endpoint_id`` by ``factor``.

        Models a *gray* failure: the endpoint stays up and keeps
        answering, but its link latency is multiplied — the failure mode
        health checks miss because nothing is actually down.  ``factor``
        must be >= 1; messages through two slowed endpoints compound.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self._slowdowns[endpoint_id] = factor

    def clear_slowdown(self, endpoint_id: int) -> None:
        """Remove the delay inflation for ``endpoint_id`` if present."""
        self._slowdowns.pop(endpoint_id, None)

    def clear_all_slowdowns(self) -> None:
        """Remove every endpoint slowdown."""
        self._slowdowns.clear()

    def slowdown_of(self, endpoint_id: int) -> float:
        """The current delay inflation factor for ``endpoint_id``."""
        return self._slowdowns.get(endpoint_id, 1.0)

    # -- delays ----------------------------------------------------------------

    def one_way_delay(self, src_id: int, dst_id: int) -> float:
        """Sample the one-way delay for a message between two endpoints."""
        link = self.client_link if CLIENT in (src_id, dst_id) else self.replica_link
        delay = link.sample(self._rng)
        slowdowns = self._slowdowns
        if slowdowns:
            delay *= (slowdowns.get(src_id, 1.0)
                      * slowdowns.get(dst_id, 1.0))
        return delay

    def _lost(self) -> bool:
        return self.message_loss > 0 and self._rng.random() < self.message_loss

    # -- RPC -------------------------------------------------------------------

    def rpc(self, src_id: int, dst: "StorageNode", request: Any) -> Event:
        """Send ``request`` to ``dst`` and return an event for the response.

        The event fires with the handler's response.  It never fires when
        the request or response is dropped (down node, partition, loss);
        handler exceptions fail the event, at the instant the handler
        fails (no return trip).
        """
        env = self.env
        event = Event(env)
        self.messages_sent += 1
        dst_id = dst.node_id

        def respond(timer: Event) -> None:
            if self.is_partitioned(src_id, dst_id) or self._lost():
                self.messages_dropped += 1
                return
            event.settle(timer._value)

        def replied(reply: Event) -> None:
            if not reply._ok:  # surface handler errors to the caller
                reply._defused = True
                event.settle(reply._value, ok=False)
                return
            Timeout(env, self.one_way_delay(dst_id, src_id), reply._value
                    ).callbacks.append(respond)

        def deliver(_timer: Event) -> None:
            if dst.is_down or self.is_partitioned(src_id, dst_id) \
                    or self._lost():
                self.messages_dropped += 1
                return
            reply = Event(env)
            reply.callbacks.append(replied)
            try:
                dst.serve(request, reply)
            except Exception as exc:  # rejected before any CPU was charged
                reply.settle(exc, ok=False)

        Timeout(env, self.one_way_delay(src_id, dst_id)
                ).callbacks.append(deliver)
        return event
