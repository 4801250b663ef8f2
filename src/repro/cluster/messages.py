"""Request/response message types exchanged between nodes.

Requests are served by :meth:`StorageNode.serve`; each request type has
a matching handler that charges the node's CPU and operates on its local
storage engine.  Responses are plain dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.common.records import Cell, ColumnName

__all__ = [
    "WriteRequest",
    "WriteAck",
    "ReadRequest",
    "ReadResponse",
    "ReadRowRequest",
    "ReadRowResponse",
    "GetThenPutRequest",
    "GetThenPutResponse",
    "IndexScanRequest",
    "IndexScanResponse",
    "RepairReadRequest",
    "RepairReadResponse",
]


@dataclass(frozen=True, slots=True)
class WriteRequest:
    """Apply ``cells`` to the row ``key`` of ``table`` (LWW per cell)."""

    table: str
    key: Hashable
    cells: Dict[ColumnName, Cell]


@dataclass(frozen=True, slots=True)
class WriteAck:
    """Acknowledgement of a :class:`WriteRequest`."""

    node_id: int
    applied: bool


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """Read the named ``columns`` of row ``key`` in ``table``."""

    table: str
    key: Hashable
    columns: Tuple[ColumnName, ...]


@dataclass(frozen=True, slots=True)
class ReadResponse:
    """Per-column cells from one replica (``None`` = column absent)."""

    node_id: int
    cells: Dict[ColumnName, Optional[Cell]]


@dataclass(frozen=True, slots=True)
class ReadRowRequest:
    """Read every cell of row ``key`` in ``table`` (wide-row reads)."""

    table: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class ReadRowResponse:
    """All cells one replica holds for the row."""

    node_id: int
    cells: Dict[ColumnName, Cell]


@dataclass(frozen=True, slots=True)
class GetThenPutRequest:
    """Atomically read ``read_columns`` then apply ``cells`` (paper §IV-C).

    Used for the combined Get-then-Put optimization of Algorithm 1: the
    replica returns the *pre-update* values of the requested columns and
    applies the write in the same local atomic step.
    """

    table: str
    key: Hashable
    cells: Dict[ColumnName, Cell]
    read_columns: Tuple[ColumnName, ...]


@dataclass(frozen=True, slots=True)
class GetThenPutResponse:
    """Pre-update cells plus the write acknowledgement."""

    node_id: int
    pre_cells: Dict[ColumnName, Optional[Cell]]
    applied: bool


@dataclass(frozen=True, slots=True)
class IndexScanRequest:
    """Scan this node's local index fragment for ``value`` in ``column``.

    Returns the requested ``columns`` of every matching local base row.
    """

    table: str
    column: ColumnName
    value: Any
    columns: Tuple[ColumnName, ...]


@dataclass(frozen=True, slots=True)
class IndexScanResponse:
    """Matches from one node's index fragment: key -> column cells."""

    node_id: int
    matches: Dict[Hashable, Dict[ColumnName, Optional[Cell]]] = field(
        default_factory=dict)


@dataclass(frozen=True, slots=True)
class RepairReadRequest:
    """Anti-entropy: fetch this replica's full row for reconciliation."""

    table: str
    key: Hashable


@dataclass(frozen=True, slots=True)
class RepairReadResponse:
    """Anti-entropy payload: every cell the replica holds for the row."""

    node_id: int
    cells: Dict[ColumnName, Cell]
