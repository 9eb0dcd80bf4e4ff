"""Reporting used by every benchmark: aligned text tables + JSON artifacts.

Each benchmark regenerates one of the experiments listed in DESIGN.md and
prints its rows in a uniform aligned-table format so that EXPERIMENTS.md can
quote the output directly.  Alongside the text, every reported table is
recorded into a machine-readable ``BENCH_<EXPERIMENT>.json`` artifact
(:class:`BenchArtifacts`), so the performance trajectory across commits can
be diffed and plotted instead of eyeballed — CI uploads the artifact
directory from its smoke runs.
"""

from __future__ import annotations

import json
import pathlib
import re
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

# Re-exported for the benchmark tables; the implementation lives next to its
# producer, record_store_statistics.
from repro.core.store import probe_counters  # noqa: F401


class Table:
    """A simple accumulating text table."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append([_render(cell) for cell in cells])

    def render(self) -> str:
        return format_table(self.title, self.headers, self.rows)

    def show(self) -> None:
        print()
        print(self.render())


def _render(cell: object) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "nan"
        if abs(cell) >= 1000 or (abs(cell) < 0.001 and cell != 0):
            return f"{cell:.3e}"
        return f"{cell:.4f}"
    return str(cell)


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Format a titled, aligned text table."""
    rows = [list(row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[index]) for index, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[index] for index in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Print a titled table built from raw (unrendered) rows."""
    table = Table(title, headers)
    for row in rows:
        table.add_row(*row)
    table.show()


def time_call(function: Callable[[], object]) -> Tuple[object, float]:
    """Run ``function`` once and return ``(result, elapsed_seconds)``."""
    started = time.perf_counter()
    result = function()
    return result, time.perf_counter() - started


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes (``None`` off-POSIX).

    On Linux this reads ``VmHWM`` — the high-water mark of this process's
    *own* address space.  ``ru_maxrss`` would be wrong in a subprocess:
    Linux never resets it across ``exec``, so a child forked from a fat
    parent inherits the parent's mark.  Elsewhere ``ru_maxrss`` is used
    (kibibytes on Linux, bytes on macOS), normalised to bytes so benchmark
    assertions can state budgets portably.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw if sys.platform == "darwin" else raw * 1024


# --------------------------------------------------------------------------- #
# machine-readable artifacts
# --------------------------------------------------------------------------- #

def experiment_id(module_name: str) -> str:
    """The experiment tag of a benchmark module: ``bench_e6_indexing`` → ``E6``.

    Modules outside the naming convention fall back to their own upper-cased
    name, so every table lands in *some* artifact.
    """
    match = re.match(r"(?:.*\.)?bench_([a-z]+\d+[a-z]?)_", module_name)
    if match:
        return match.group(1).upper()
    return module_name.rpartition(".")[2].upper()


def _json_cell(cell: object) -> object:
    """A JSON-serializable rendering of one table cell (numbers stay numbers)."""
    if cell is None or isinstance(cell, (bool, int, float)):
        return cell
    return str(cell)


class BenchArtifacts:
    """Accumulates reported tables into per-experiment JSON files.

    One artifact per experiment — ``BENCH_E6.json`` holds every table the E6
    module reported this session::

        {"experiment": "E6", "schema_version": 1,
         "tables": [{"title": ..., "headers": [...], "rows": [[...], ...]}],
         "memory": [{"label": ..., "peak_rss_bytes": ..., ...}]}

    The ``memory`` list (present only when something was recorded) carries
    machine-checkable memory measurements — peak RSS, allocated bytes, the
    budget they were asserted against — so artifact diffing can flag memory
    regressions the same way it flags timing ones.

    ``record``/``record_memory`` rewrite the file after every entry, so a
    crashed or interrupted benchmark session still leaves what it completed.
    """

    SCHEMA_VERSION = 1

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self._tables: dict = {}
        self._memory: dict = {}

    def reset(self) -> None:
        """Start a fresh session: drop recorded state and stale artifact files."""
        self._tables.clear()
        self._memory.clear()
        if self.directory.exists():
            for stale in self.directory.glob("BENCH_*.json"):
                stale.unlink()

    def path_for(self, experiment: str) -> pathlib.Path:
        return self.directory / f"BENCH_{experiment}.json"

    def _write(self, experiment: str) -> pathlib.Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(experiment)
        payload = {
            "experiment": experiment,
            "schema_version": self.SCHEMA_VERSION,
            "tables": self._tables.get(experiment, []),
        }
        if self._memory.get(experiment):
            payload["memory"] = self._memory[experiment]
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        return path

    def record(
        self,
        experiment: str,
        title: str,
        headers: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> pathlib.Path:
        """Record one table and rewrite the experiment's artifact file."""
        table = {
            "title": str(title),
            "headers": [str(h) for h in headers],
            "rows": [[_json_cell(cell) for cell in row] for row in rows],
        }
        self._tables.setdefault(experiment, []).append(table)
        return self._write(experiment)

    def record_memory(
        self,
        experiment: str,
        label: str,
        peak_rss_bytes: Optional[int],
        allocated_bytes: Optional[int] = None,
        budget_bytes: Optional[int] = None,
    ) -> pathlib.Path:
        """Record one memory measurement into the experiment's artifact."""
        entry = {"label": str(label), "peak_rss_bytes": peak_rss_bytes}
        if allocated_bytes is not None:
            entry["allocated_bytes"] = int(allocated_bytes)
        if budget_bytes is not None:
            entry["budget_bytes"] = int(budget_bytes)
        self._memory.setdefault(experiment, []).append(entry)
        return self._write(experiment)
