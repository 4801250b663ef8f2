"""Coordinator logic: quorum scatter/gather over replica sets.

Any node can coordinate any request (multi-master, paper Section II).  The
coordinator broadcasts to all N replicas of the target key, waits for the
first W acknowledgements (Put) or R responses (Get), merges responses by
timestamp, and returns.  Late responses keep arriving in the background —
:class:`ResponseCollector` tracks them, which is exactly what Algorithm 1
needs when it keeps collecting view-key versions after acking the client.

Also implements the eventual-delivery helpers: read repair and hinted
handoff.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.cluster.messages import (
    RPC_TIMEOUT_MS,
    GetThenPutRequest,
    IndexScanRequest,
    ReadRequest,
    ReadRowRequest,
    WriteRequest,
)
from repro.common.records import (
    Cell,
    ColumnName,
    merge_cells,
    merge_row,
    stale_cells,
)
from repro.common.quorum import validate_quorum
from repro.errors import QuorumError, UnavailableError
from repro.sim.kernel import Environment, Event

__all__ = ["ResponseCollector", "Coordinator"]


class ResponseCollector:
    """Tracks replica responses to one scattered request.

    ``wait(count)`` returns an event that fires with the first ``count``
    responses (or fails with :class:`QuorumError` if the timeout passes
    first).  ``settled`` fires once every replica has responded or the
    timeout expired, carrying all responses received by then — Algorithm 1
    uses this to keep gathering view-key guesses after the client was acked.
    """

    def __init__(self, env: Environment, events: List[Event], timeout: float):
        self.env = env
        self.responses: List[object] = []
        self._total = len(events)
        self._waiters: List[Tuple[int, Event]] = []
        self.settled = env.event()
        self._timed_out = False
        for event in events:
            event.add_callback(self._on_response)
        env.timeout(timeout).add_callback(self._on_timeout)
        if self._total == 0:
            self._settle()

    # -- public ----------------------------------------------------------------

    def wait(self, count: int) -> Event:
        """Event firing with the first ``count`` responses."""
        event = self.env.event()
        if len(self.responses) >= count:
            event.succeed(list(self.responses[:count]))
        elif self._timed_out or count > self._total:
            event.fail(QuorumError(
                f"needed {count} responses, got {len(self.responses)}",
                required=count, received=len(self.responses)))
        else:
            self._waiters.append((count, event))
        return event

    # -- internals -----------------------------------------------------------

    def _on_response(self, event: Event) -> None:
        if not event._ok:
            # A handler raised: propagate to every waiter (programming
            # errors must not be silently converted into timeouts).
            event.defuse()
            self._fail_all(event._value)
            return
        if self._timed_out:
            return
        responses = self.responses
        responses.append(event._value)
        have = len(responses)
        if self._waiters:
            pending = []
            for count, waiter in self._waiters:
                if count <= have:
                    waiter.succeed(responses[:count])
                else:
                    pending.append((count, waiter))
            self._waiters = pending
        if have == self._total:
            self._settle()

    def _on_timeout(self, event: Event) -> None:
        if self._timed_out or self.settled.triggered:
            return
        self._timed_out = True
        self._settle()

    def _settle(self) -> None:
        for count, waiter in self._waiters:
            waiter.fail(QuorumError(
                f"needed {count} responses, got {len(self.responses)}",
                required=count, received=len(self.responses)))
        self._waiters = []
        if not self.settled.triggered:
            self.settled.succeed(list(self.responses))

    def _fail_all(self, exc: BaseException) -> None:
        self._timed_out = True
        for _count, waiter in self._waiters:
            waiter.fail(exc)
        self._waiters = []
        if not self.settled.triggered:
            # ``settled`` is optional to consume; a failure with no waiter
            # must not crash the simulation (waiters still see the raise).
            self.settled.defuse()
            self.settled.fail(exc)


class Coordinator:
    """The coordination role of one storage node."""

    def __init__(self, node, cluster):
        self.node = node
        self.cluster = cluster
        self.env = cluster.env
        self.config = cluster.config

    # -- scatter primitives ----------------------------------------------------

    def _scatter(self, table: str, key: Hashable, request, required: int,
                 kind: str, hint: Optional[WriteRequest] = None
                 ) -> ResponseCollector:
        """Send ``request`` to every alive replica of ``key``.

        Raises :class:`UnavailableError` if fewer than ``required`` (a
        ``kind`` quorum) replicas are alive.  Writes pass ``hint``: down
        replicas get it parked (when hinted handoff is on) instead of a
        message.
        """
        replicas = self.cluster.replicas_for(table, key)
        required = validate_quorum(required, len(replicas), kind=kind)
        alive = [replica for replica in replicas if not replica.is_down]
        if len(alive) < required:
            raise UnavailableError(
                f"only {len(alive)}/{len(replicas)} replicas alive, "
                f"need {required}", required=required, received=len(alive))
        if hint is not None and self.config.hinted_handoff:
            for replica in replicas:
                if replica.is_down:
                    self.cluster.hints.add(self.node.node_id,
                                           replica.node_id, hint)
        node_id = self.node.node_id
        rpc = self.cluster.network.rpc
        return ResponseCollector(
            self.env, [rpc(node_id, replica, request) for replica in alive],
            RPC_TIMEOUT_MS)

    def scatter_write(self, table: str, key: Hashable,
                      cells: Dict[ColumnName, Cell],
                      required: int) -> ResponseCollector:
        """Broadcast a write to all replicas of ``key``.

        Down replicas get hints (when enabled) instead of messages; raises
        :class:`UnavailableError` if fewer than ``required`` replicas are
        alive.
        """
        request = WriteRequest(table, key, dict(cells))
        return self._scatter(table, key, request, required, "W", hint=request)

    def scatter_read(self, table: str, key: Hashable,
                     columns: Tuple[ColumnName, ...],
                     required: int) -> ResponseCollector:
        """Broadcast a column read to all alive replicas of ``key``."""
        return self._scatter(table, key,
                             ReadRequest(table, key, tuple(columns)),
                             required, "R")

    def scatter_read_row(self, table: str, key: Hashable,
                         required: int) -> ResponseCollector:
        """Broadcast a whole-row read to all alive replicas of ``key``."""
        return self._scatter(table, key, ReadRowRequest(table, key),
                             required, "R")

    def scatter_get_then_put(self, table: str, key: Hashable,
                             cells: Dict[ColumnName, Cell],
                             read_columns: Tuple[ColumnName, ...],
                             required: int) -> ResponseCollector:
        """Broadcast the combined Get-then-Put of Algorithm 1 (optimized).

        Down replicas are hinted the write half only.
        """
        request = GetThenPutRequest(table, key, dict(cells),
                                    tuple(read_columns))
        return self._scatter(table, key, request, required, "W",
                             hint=WriteRequest(table, key, dict(cells)))

    # -- high-level operations ---------------------------------------------------

    def put(self, table: str, key: Hashable, cells: Dict[ColumnName, Cell],
            w: int):
        """Quorum Put: returns once W replicas have acknowledged."""
        yield self.node.charge_cpu(self.config.service.coordinator)
        collector = self.scatter_write(table, key, cells, w)
        yield collector.wait(w)

    def get(self, table: str, key: Hashable,
            columns: Tuple[ColumnName, ...], r: int):
        """Quorum Get: merged per-column cells from the first R responses."""
        yield self.node.charge_cpu(self.config.service.coordinator)
        collector = self.scatter_read(table, key, columns, r)
        responses = yield collector.wait(r)
        merged = {column: merge_cells(response.cells.get(column)
                                      for response in responses)
                  for column in columns}
        if self.config.read_repair:
            # A NULL winner (never written on any responder) has nothing
            # to repair.
            self._read_repair(table, key, responses, {
                column: cell for column, cell in merged.items()
                if cell.timestamp >= 0})
        return merged

    def get_row(self, table: str, key: Hashable, r: int):
        """Quorum whole-row Get: merged cells of every column seen."""
        yield self.node.charge_cpu(self.config.service.coordinator)
        collector = self.scatter_read_row(table, key, r)
        responses = yield collector.wait(r)
        merged: Dict[ColumnName, Cell] = {}
        for response in responses:
            merge_row(merged, response.cells)
        if self.config.read_repair and merged:
            self._read_repair(table, key, responses, merged)
        return merged

    def index_read(self, table: str, column: ColumnName, value,
                   columns: Tuple[ColumnName, ...]):
        """Secondary-index read: scatter to every node, merge fragments.

        This is the expensive path the paper measures: the lookup must be
        broadcast to all servers because fragments are partitioned by
        primary key, and the coordinator must wait for all of them.
        """
        yield self.node.charge_cpu(self.config.service.coordinator)
        nodes = [node for node in self.cluster.nodes if not node.is_down]
        if not nodes:
            raise UnavailableError("no nodes alive for index read")
        request = IndexScanRequest(table, column, value, tuple(columns))
        events = [self.cluster.network.rpc(self.node.node_id, node, request)
                  for node in nodes]
        collector = ResponseCollector(self.env, events, RPC_TIMEOUT_MS)
        responses = yield collector.wait(len(nodes))
        # Merge per-key: replicas may disagree; LWW per cell.
        merged: Dict[Hashable, Dict[ColumnName, Cell]] = {}
        for response in responses:
            for key, cells in response.matches.items():
                merge_row(merged.setdefault(key, {}), cells)
        # Drop keys whose indexed column no longer matches after merging
        # (a fragment can be momentarily stale relative to a peer replica).
        result: Dict[Hashable, Dict[ColumnName, Cell]] = {}
        for key, cells in merged.items():
            indexed_cell = cells.get(column)
            if column in columns and indexed_cell is not None:
                if indexed_cell.is_null or indexed_cell.value != value:
                    continue
            result[key] = cells
        return result

    # -- helpers -------------------------------------------------------------------

    def _read_repair(self, table: str, key: Hashable, responses,
                     winners: Dict[ColumnName, Cell]) -> None:
        """Push ``winners`` to every responding replica that was missing
        one or held it stale."""
        repair_cells: Dict[ColumnName, Cell] = {}
        for response in responses:
            repair_cells.update(stale_cells(winners, response.cells))
        if not repair_cells:
            return
        try:
            self.scatter_write(table, key, repair_cells, required=1)
        except UnavailableError:  # pragma: no cover - nothing alive to repair
            pass
