"""Anti-entropy repair: reconcile replicas of a row or table.

``repair_row`` is the core primitive (compare replicas, push LWW winners
back); ``repair_table`` sweeps every key; :class:`AntiEntropyService` runs
periodic sweeps in the background when enabled.  This is the heavyweight
eventual-delivery mechanism that catches whatever hinted handoff and read
repair miss (e.g. hints lost because their holder also failed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable

from repro.cluster.messages import (
    RPC_TIMEOUT_MS,
    RepairReadRequest,
    WriteRequest,
)
from repro.common.records import Cell, ColumnName, merge_row, stale_cells

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster

__all__ = ["repair_row", "repair_table", "AntiEntropyService"]


def repair_row(cluster: "Cluster", table: str, key: Hashable):
    """Reconcile all alive replicas of one row; a simulation process.

    Reads the full row from every alive replica, merges per-cell LWW
    winners, and writes any cells a replica is missing or holds stale
    back to it.  Returns the number of replicas that needed repair.
    """
    replicas = [r for r in cluster.replicas_for(table, key) if not r.is_down]
    if not replicas:
        return 0
    request = RepairReadRequest(table, key)
    events = [cluster.network.rpc(replica.node_id, replica, request)
              for replica in replicas]
    responses = []
    for event in events:
        timer = cluster.env.timeout(RPC_TIMEOUT_MS)
        outcome = yield cluster.env.any_of([event, timer])
        if event in outcome:
            responses.append(outcome[event])
    merged: Dict[ColumnName, Cell] = {}
    for response in responses:
        merge_row(merged, response.cells)
    repaired = 0
    for response in responses:
        missing = stale_cells(merged, response.cells)
        if missing:
            repaired += 1
            replica = cluster.node(response.node_id)
            ack = cluster.network.rpc(replica.node_id, replica,
                                      WriteRequest(table, key, missing))
            timer = cluster.env.timeout(RPC_TIMEOUT_MS)
            yield cluster.env.any_of([ack, timer])
    return repaired


def repair_table(cluster: "Cluster", table: str):
    """Reconcile every key of ``table``; a simulation process.

    The key universe is the union of keys across alive replicas (a real
    system would walk Merkle trees; a full sweep is equivalent for our
    in-memory scale).  Returns the number of rows that needed repair.
    """
    repaired_rows = 0
    for key in sorted(cluster.alive_keys(table), key=repr):
        repaired = yield cluster.env.process(repair_row(cluster, table, key))
        if repaired:
            repaired_rows += 1
    return repaired_rows


class AntiEntropyService:
    """Optional periodic background repair over a set of tables."""

    def __init__(self, cluster: "Cluster", tables, interval: float):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.cluster = cluster
        self.tables = list(tables)
        self.interval = interval
        self.sweeps = 0
        self._stopped = False
        self._process = cluster.env.process(self._loop(), name="anti-entropy")

    def stop(self) -> None:
        """Stop sweeping after the current cycle."""
        self._stopped = True

    def _loop(self):
        while not self._stopped:
            yield self.cluster.env.timeout(self.interval)
            if self._stopped:
                return
            for table in self.tables:
                yield self.cluster.env.process(
                    repair_table(self.cluster, table))
            self.sweeps += 1
