"""A storage node: local engine + CPU + request handlers.

Each node owns an in-memory :class:`LocalStorageEngine`, a CPU of
``cores_per_node`` cores, and the local fragments of any native secondary
indexes.

Callback serving.  A request is served by :meth:`StorageNode.serve` as a
callback chain, not a :class:`Process`: the handler computes its CPU cost
and charges it at once, and the charge's completion event runs the rest —
read or apply local state (atomically, nothing else runs in between) and
settle the caller's ``reply`` event.  Serving inline keeps event order:
the network calls ``serve`` from a NORMAL-priority delivery timer, so no
URGENT event can be pending at that instant and a process started there
would have run next anyway.  The reply is settled with
:meth:`Event.settle`, which runs the waiter inline only when no other
event is due now — exactly where a process's end event would have fired.

The CPU.  :class:`CoreQueue` queues charges FIFO across the cores and
computes each start at arrival (``start = max(now, earliest core-free
time)``, the Kiefer–Wolfowitz recursion), scheduling one completion event
at the absolute end time.  That is the schedule a ``Resource`` with
``request()``/``release()`` produced, without its grant events.  The
coordinator, the view manager and deferred write work charge the same
queue through :meth:`StorageNode.charge_cpu`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.messages import (
    GetThenPutRequest,
    GetThenPutResponse,
    IndexScanRequest,
    IndexScanResponse,
    ReadRequest,
    ReadResponse,
    ReadRowRequest,
    ReadRowResponse,
    RepairReadRequest,
    RepairReadResponse,
    WriteAck,
    WriteRequest,
)
from repro.cluster.storage import LocalStorageEngine
from repro.common.records import Cell, ColumnName
from repro.errors import ClusterError
from repro.index import IndexSchema, LocalIndexFragment
from repro.sim.kernel import Environment, Event
from repro.sim.resources import CoreQueue

__all__ = ["StorageNode"]


class StorageNode:
    """One server of the multi-master cluster."""

    def __init__(self, env: Environment, node_id: int, config: ClusterConfig,
                 index_schema: IndexSchema):
        self.env = env
        self.node_id = node_id
        self.config = config
        self.service = config.service
        self.cpu = CoreQueue(env, capacity=config.cores_per_node)
        self.engine = LocalStorageEngine()
        self.index_schema = index_schema
        self._fragments: Dict[Tuple[str, ColumnName], LocalIndexFragment] = {}
        self.is_down = False
        # Gray failure: multiplier on every CPU service time (a thermally
        # throttled or noisy-neighbor node — up, but slow).
        self.cpu_slowdown = 1.0
        # Observability counters.
        self.requests_handled = 0
        self.busy_time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "down" if self.is_down else "up"
        return f"<StorageNode {self.node_id} {state}>"

    # -- lifecycle -------------------------------------------------------------

    def mark_down(self) -> None:
        """Take the node offline: it stops receiving messages."""
        self.is_down = True

    def mark_up(self) -> None:
        """Bring the node back online (its stored state is retained)."""
        self.is_down = False

    def set_cpu_slowdown(self, factor: float) -> None:
        """Inflate every CPU service time by ``factor`` (gray failure).

        ``factor`` must be >= 1; ``1.0`` restores normal speed.  The
        node keeps serving requests — slower, which is exactly what
        makes gray failures harder on quorum systems than crashes: the
        slow replica still counts against timeouts.
        """
        if factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {factor}")
        self.cpu_slowdown = factor

    # -- schema ------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create the local shard of ``name``."""
        self.engine.create_table(name)

    def register_index(self, table: str, column: ColumnName) -> None:
        """Create the local fragment for an index on ``table.column``.

        Rebuilds from locally stored rows so indexes can be added to
        populated tables.
        """
        fragment = LocalIndexFragment(table, column)
        fragment.rebuild(
            (key, self.engine.read(table, key, (column,))[column])
            for key in self.engine.keys(table))
        self._fragments[(table, column)] = fragment

    def fragment(self, table: str, column: ColumnName) -> LocalIndexFragment:
        """The local index fragment for ``table.column``."""
        try:
            return self._fragments[(table, column)]
        except KeyError:
            raise ClusterError(
                f"no index fragment for {table}.{column} on node "
                f"{self.node_id}") from None

    # -- CPU accounting -------------------------------------------------------------

    def charge_cpu(self, duration: float) -> Event:
        """Charge ``duration`` ms of CPU; the event fires when it is done.

        The work queues FIFO behind earlier charges on this node's cores
        (:class:`CoreQueue`), so the completion time is known at once.
        Processes ``yield`` the event; background work ignores it.
        """
        if self.cpu_slowdown != 1.0:
            duration *= self.cpu_slowdown
        self.busy_time += duration
        return self.cpu.charge(duration)

    # -- serving ---------------------------------------------------------------------

    def serve(self, request, reply: Event) -> None:
        """Handle ``request`` and settle ``reply`` with the response.

        The handler computes its CPU cost and charges it now; when the
        charge completes it reads or applies local state and settles
        ``reply`` with the response, or fails it with the exception that
        storage operation raised.  Errors found before the charge (an
        unknown request type, table or index) raise here instead, and no
        CPU is charged.
        """
        self.requests_handled += 1
        service = self.service
        if isinstance(request, WriteRequest):
            cost = (service.write_cost(len(request.cells))
                    + self._index_maintenance_cost(request.table,
                                                   request.cells))
            finish = self._write
        elif isinstance(request, ReadRequest):
            cost = service.read_cost(len(request.columns))
            finish = self._read
        elif isinstance(request, ReadRowRequest):
            cells = self.engine.read_row(request.table, request.key)
            cost = service.read_cost(max(1, len(cells)))
            finish = self._read_row
        elif isinstance(request, GetThenPutRequest):
            cost = (service.read_cost(len(request.read_columns))
                    + service.write_cost(len(request.cells))
                    + self._index_maintenance_cost(request.table,
                                                   request.cells))
            finish = self._get_then_put
        elif isinstance(request, IndexScanRequest):
            fragment = self.fragment(request.table, request.column)
            matches = fragment.lookup(request.value)
            cost = (service.index_scan
                    + service.per_cell * len(matches) * len(request.columns))
            finish = self._index_scan
        elif isinstance(request, RepairReadRequest):
            cells = self.engine.read_row(request.table, request.key)
            cost = service.read_cost(max(1, len(cells)))
            finish = self._repair_read
        else:
            raise ClusterError(
                f"unknown request type {type(request).__name__}")

        def complete(_event: Event) -> None:
            try:
                response = finish(request)
            except Exception as exc:  # the storage operation failed
                reply.settle(exc, ok=False)
            else:
                reply.settle(response)

        self.charge_cpu(cost).callbacks.append(complete)

    def dispatch(self, request):
        """Generator adapter over :meth:`serve` for use inside a process:
        ``response = yield from node.dispatch(request)``."""
        reply = Event(self.env)
        self.serve(request, reply)
        return (yield reply)

    # -- handlers -----------------------------------------------------------------

    def _index_maintenance_cost(self, table: str,
                                cells: Dict[ColumnName, Cell]) -> float:
        indexed = self.index_schema.columns_for(table)
        if not indexed:
            return 0.0
        touched = sum(1 for column in cells if column in indexed)
        return touched * self.service.index_update

    def _apply_write(self, table: str, key: Hashable,
                     cells: Dict[ColumnName, Cell]) -> bool:
        """Apply a write and maintain local index fragments; atomic."""
        changed = self.engine.apply(table, key, cells)
        for column, (old, new) in changed.items():
            fragment = self._fragments.get((table, column))
            if fragment is not None:
                fragment.on_cell_changed(key, old, new)
        # Deferred write work (commit log, memtable churn): charged to
        # this node's CPU asynchronously, off the acknowledgement path.
        background = self.service.write_background
        if background > 0:
            self.charge_cpu(background)
        return bool(changed)

    # The finishers run when a request's CPU charge completes; each works
    # on local state atomically and returns the response.

    def _write(self, request: WriteRequest) -> WriteAck:
        applied = self._apply_write(request.table, request.key, request.cells)
        return WriteAck(self.node_id, applied)

    def _read(self, request: ReadRequest) -> ReadResponse:
        cells = self.engine.read(request.table, request.key, request.columns)
        return ReadResponse(self.node_id, cells)

    def _read_row(self, request: ReadRowRequest) -> ReadRowResponse:
        # Read at completion so the response reflects the state then (the
        # delay models work, not staleness).
        cells = self.engine.read_row(request.table, request.key)
        return ReadRowResponse(self.node_id, cells)

    def _get_then_put(self, request: GetThenPutRequest) -> GetThenPutResponse:
        # Read-then-write in one step: atomic at this replica.
        pre = self.engine.read(request.table, request.key, request.read_columns)
        applied = self._apply_write(request.table, request.key, request.cells)
        return GetThenPutResponse(self.node_id, pre, applied)

    def _index_scan(self, request: IndexScanRequest) -> IndexScanResponse:
        # Look up again at completion for current truth.
        matches = self.fragment(request.table, request.column).lookup(
            request.value)
        result: Dict[Hashable, Dict[ColumnName, Optional[Cell]]] = {}
        for key in matches:
            result[key] = self.engine.read(request.table, key, request.columns)
        return IndexScanResponse(self.node_id, result)

    def _repair_read(self, request: RepairReadRequest) -> RepairReadResponse:
        cells = self.engine.read_row(request.table, request.key)
        return RepairReadResponse(self.node_id, cells)
