"""The per-cell last-writer-wins rule is written out in one module.

Replica reconciliation (cross-replica merges, repair diffs) goes through
``merge_cells``/``merge_row``/``stale_cells`` in
``repro.common.records``.  A hand-written ``cell_wins`` loop anywhere
else is a second copy of the rule, which a change to it (say, version
vectors behind the merge) would miss.
"""

import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

ALLOWED = {
    "common/records.py",     # the rule itself
    "views/model.py",        # the reference oracle, independent on purpose
    "views/maintenance.py",  # update_is_newer: one cell against one cell
    "bench/micro.py",        # the cell_wins micro-benchmark
}


def test_cell_wins_is_called_only_by_the_allowed_modules():
    callers = sorted(
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if re.search(r"\bcell_wins\(", path.read_text()))
    assert [caller for caller in callers if caller not in ALLOWED] == []
