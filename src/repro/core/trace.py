"""Execution traces of ``IncrementalFD`` (reproduces Table 3 of the paper).

Table 3 shows the contents of ``Incomplete`` and ``Complete`` after the
initialization of ``IncrementalFD({Climates, Accommodations, Sites}, 1)`` and
after each of its six iterations.  :func:`trace_incremental_fd` records
exactly that information for any database and anchor relation, and
:func:`format_trace` renders it as an aligned text table in the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.relational.database import Database
from repro.core.incremental import AnchorSpec, incremental_fd, resolve_anchor
from repro.core.tupleset import TupleSet


@dataclass
class TraceSnapshot:
    """The state of the two lists at one point of the execution."""

    label: str
    incomplete: List[TupleSet] = field(default_factory=list)
    complete: List[TupleSet] = field(default_factory=list)

    def incomplete_labels(self) -> List[frozenset]:
        """The members of ``Incomplete`` as frozensets of tuple labels."""
        return [tuple_set.labels() for tuple_set in self.incomplete]

    def complete_labels(self) -> List[frozenset]:
        """The members of ``Complete`` as frozensets of tuple labels."""
        return [tuple_set.labels() for tuple_set in self.complete]


@dataclass
class ExecutionTrace:
    """All snapshots of one ``IncrementalFD`` run, plus the produced results."""

    anchor: str
    snapshots: List[TraceSnapshot] = field(default_factory=list)
    results: List[TupleSet] = field(default_factory=list)

    def snapshot(self, label: str) -> TraceSnapshot:
        """Return the snapshot with the given label (e.g. ``"Iteration 3"``)."""
        for snap in self.snapshots:
            if snap.label == label:
                return snap
        raise KeyError(f"no snapshot labelled {label!r}")

    @property
    def iterations(self) -> int:
        """Number of loop iterations (equals the number of results, Theorem 4.6)."""
        return len(self.results)


def trace_incremental_fd(
    database: Database,
    anchor: AnchorSpec,
) -> ExecutionTrace:
    """Run ``IncrementalFD(R, i)`` and record the lists after each iteration."""
    anchor_name = resolve_anchor(database, anchor)
    trace = ExecutionTrace(anchor=anchor_name)

    def on_initialized(incomplete, complete) -> None:
        trace.snapshots.append(
            TraceSnapshot(
                label="Initialization",
                incomplete=incomplete.as_list(),
                complete=complete.as_list(),
            )
        )

    def on_iteration(iteration, result, incomplete, complete) -> None:
        trace.snapshots.append(
            TraceSnapshot(
                label=f"Iteration {iteration}",
                incomplete=incomplete.as_list(),
                complete=complete.as_list(),
            )
        )

    for result in incremental_fd(
        database,
        anchor_name,
        on_initialized=on_initialized,
        on_iteration=on_iteration,
    ):
        trace.results.append(result)
    return trace


def _render_sets(tuple_sets: Sequence[TupleSet]) -> List[str]:
    return ["{" + ", ".join(sorted(t.label for t in ts)) + "}" for ts in tuple_sets]


def format_trace(trace: ExecutionTrace, max_columns: Optional[int] = None) -> str:
    """Render an :class:`ExecutionTrace` in the layout of Table 3.

    Each snapshot becomes a column; the upper block lists ``Incomplete`` and
    the lower block lists ``Complete``.
    """
    snapshots = trace.snapshots if max_columns is None else trace.snapshots[:max_columns]
    columns = [snap.label for snap in snapshots]
    incomplete_rows = max((len(snap.incomplete) for snap in snapshots), default=0)
    complete_rows = max((len(snap.complete) for snap in snapshots), default=0)

    grid: List[List[str]] = []
    grid.append([""] + columns)
    for row_index in range(incomplete_rows):
        row = ["Incomplete" if row_index == 0 else ""]
        for snap in snapshots:
            rendered = _render_sets(snap.incomplete)
            row.append(rendered[row_index] if row_index < len(rendered) else "")
        grid.append(row)
    for row_index in range(complete_rows):
        row = ["Complete" if row_index == 0 else ""]
        for snap in snapshots:
            rendered = _render_sets(snap.complete)
            row.append(rendered[row_index] if row_index < len(rendered) else "")
        grid.append(row)

    widths = [max(len(row[idx]) for row in grid) for idx in range(len(grid[0]))]
    lines = []
    for row_index, row in enumerate(grid):
        lines.append("  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(row)))
        if row_index == 0:
            lines.append("  ".join("-" * widths[idx] for idx in range(len(row))))
    return "\n".join(lines)
