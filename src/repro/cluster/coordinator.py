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

from typing import Dict, Hashable, List, Tuple

from repro.cluster.messages import (
    GetThenPutRequest,
    IndexScanRequest,
    ReadRequest,
    ReadRowRequest,
    WriteRequest,
)
from repro.common.records import Cell, ColumnName, cell_wins, merge_cells
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

    @property
    def response_count(self) -> int:
        """Responses received so far."""
        return len(self.responses)

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

    def _replicas(self, table: str, key: Hashable):
        return self.cluster.replicas_for(table, key)

    def _alive(self, replicas) -> List:
        return [replica for replica in replicas if not replica.is_down]

    def _check_available(self, alive_count: int, required: int,
                         total: int) -> None:
        if alive_count < required:
            raise UnavailableError(
                f"only {alive_count}/{total} replicas alive, need {required}",
                required=required, received=alive_count)

    def scatter_write(self, table: str, key: Hashable,
                      cells: Dict[ColumnName, Cell],
                      required: int) -> ResponseCollector:
        """Broadcast a write to all replicas of ``key``.

        Down replicas get hints (when enabled) instead of messages; raises
        :class:`UnavailableError` if fewer than ``required`` replicas are
        alive.
        """
        replicas = self._replicas(table, key)
        required = validate_quorum(required, len(replicas), kind="W")
        alive = self._alive(replicas)
        self._check_available(len(alive), required, len(replicas))
        request = WriteRequest(table, key, dict(cells))
        if self.config.hinted_handoff:
            for replica in replicas:
                if replica.is_down:
                    self.cluster.hints.add(self.node.node_id,
                                           replica.node_id, request)
        events = [self.cluster.network.rpc(self.node.node_id, replica, request)
                  for replica in alive]
        return ResponseCollector(self.env, events, self.config.rpc_timeout)

    def scatter_read(self, table: str, key: Hashable,
                     columns: Tuple[ColumnName, ...],
                     required: int) -> ResponseCollector:
        """Broadcast a column read to all alive replicas of ``key``."""
        replicas = self._replicas(table, key)
        required = validate_quorum(required, len(replicas), kind="R")
        alive = self._alive(replicas)
        self._check_available(len(alive), required, len(replicas))
        request = ReadRequest(table, key, tuple(columns))
        events = [self.cluster.network.rpc(self.node.node_id, replica, request)
                  for replica in alive]
        return ResponseCollector(self.env, events, self.config.rpc_timeout)

    def scatter_read_row(self, table: str, key: Hashable,
                         required: int) -> ResponseCollector:
        """Broadcast a whole-row read to all alive replicas of ``key``."""
        replicas = self._replicas(table, key)
        required = validate_quorum(required, len(replicas), kind="R")
        alive = self._alive(replicas)
        self._check_available(len(alive), required, len(replicas))
        request = ReadRowRequest(table, key)
        events = [self.cluster.network.rpc(self.node.node_id, replica, request)
                  for replica in alive]
        return ResponseCollector(self.env, events, self.config.rpc_timeout)

    def scatter_get_then_put(self, table: str, key: Hashable,
                             cells: Dict[ColumnName, Cell],
                             read_columns: Tuple[ColumnName, ...],
                             required: int) -> ResponseCollector:
        """Broadcast the combined Get-then-Put of Algorithm 1 (optimized)."""
        replicas = self._replicas(table, key)
        required = validate_quorum(required, len(replicas), kind="W")
        alive = self._alive(replicas)
        self._check_available(len(alive), required, len(replicas))
        request = GetThenPutRequest(table, key, dict(cells), tuple(read_columns))
        if self.config.hinted_handoff:
            write_only = WriteRequest(table, key, dict(cells))
            for replica in replicas:
                if replica.is_down:
                    self.cluster.hints.add(self.node.node_id,
                                           replica.node_id, write_only)
        events = [self.cluster.network.rpc(self.node.node_id, replica, request)
                  for replica in alive]
        return ResponseCollector(self.env, events, self.config.rpc_timeout)

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
        merged = self._merge_columns(columns, responses)
        if self.config.read_repair:
            self._maybe_read_repair(table, key, columns, responses, merged)
        return merged

    def get_row(self, table: str, key: Hashable, r: int):
        """Quorum whole-row Get: merged cells of every column seen."""
        yield self.node.charge_cpu(self.config.service.coordinator)
        collector = self.scatter_read_row(table, key, r)
        responses = yield collector.wait(r)
        merged: Dict[ColumnName, Cell] = {}
        for response in responses:
            for column, cell in response.cells.items():
                if column not in merged or cell_wins(cell, merged[column]):
                    merged[column] = cell
        if self.config.read_repair and merged:
            self._maybe_row_read_repair(table, key, responses, merged)
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
        collector = ResponseCollector(self.env, events, self.config.rpc_timeout)
        responses = yield collector.wait(len(nodes))
        # Merge per-key: replicas may disagree; LWW per cell.
        merged: Dict[Hashable, Dict[ColumnName, Cell]] = {}
        for response in responses:
            for key, cells in response.matches.items():
                target = merged.setdefault(key, {})
                for col, cell in cells.items():
                    if cell is None:
                        continue
                    if col not in target or cell_wins(cell, target[col]):
                        target[col] = cell
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

    @staticmethod
    def _merge_columns(columns: Tuple[ColumnName, ...],
                       responses) -> Dict[ColumnName, Cell]:
        merged: Dict[ColumnName, Cell] = {}
        for column in columns:
            merged[column] = merge_cells(
                response.cells.get(column) for response in responses)
        return merged

    def _maybe_row_read_repair(self, table: str, key: Hashable, responses,
                               merged: Dict[ColumnName, Cell]) -> None:
        """Wide-row variant of read repair: push winners any responding
        replica was missing or held stale."""
        repair_cells: Dict[ColumnName, Cell] = {}
        for response in responses:
            for column, winner in merged.items():
                local = response.cells.get(column)
                if local is None or cell_wins(winner, local):
                    repair_cells[column] = winner
        if not repair_cells:
            return
        try:
            self.scatter_write(table, key, repair_cells, required=1)
        except UnavailableError:  # pragma: no cover - nothing alive
            pass

    def _maybe_read_repair(self, table: str, key: Hashable,
                           columns: Tuple[ColumnName, ...], responses,
                           merged: Dict[ColumnName, Cell]) -> None:
        """Push merged winners to replicas that returned stale cells."""
        repair_cells: Dict[ColumnName, Cell] = {}
        for response in responses:
            for column in columns:
                winner = merged[column]
                if winner.timestamp < 0:
                    continue
                local = response.cells.get(column)
                if local is None or cell_wins(winner, local):
                    repair_cells[column] = winner
        if not repair_cells:
            return
        try:
            self.scatter_write(table, key, repair_cells, required=1)
        except UnavailableError:  # pragma: no cover - nothing alive to repair
            pass
