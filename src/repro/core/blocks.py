"""Block-based execution (Section 7, "Block-based execution").

The paper's algorithms are tuple-at-a-time; Section 7 notes that every loop
can iterate over *blocks* of tuples instead, without affecting correctness,
which is how the algorithm would be integrated into a standard query
processor.  In this library the change of execution granularity is carried by
the scanner (:class:`~repro.core.scanner.BlockScanner`): the tuple stream is
identical, but tuples are fetched a block at a time and the number of block
fetches — the I/O measure a database system cares about — is recorded.

This module provides the user-facing helpers around that mechanism: running
the full disjunction block-based, and comparing the simulated I/O cost across
block sizes (experiment E5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple as TupleType

from repro.relational.database import Database
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.store import probe_counters
from repro.core.tupleset import TupleSet


@dataclass
class BlockExecutionReport:
    """Work measures of one block-based (or tuple-based) run."""

    block_size: Optional[int]
    results: int
    tuple_reads: int
    block_reads: int
    scan_passes: int
    bucket_probes: int = 0
    full_scans: int = 0

    @property
    def io_requests(self) -> int:
        """Simulated I/O requests: block fetches, or tuple fetches when tuple-based."""
        return self.block_reads if self.block_size is not None else self.tuple_reads

    def as_dict(self) -> dict:
        return {
            "block_size": self.block_size,
            "results": self.results,
            "tuple_reads": self.tuple_reads,
            "block_reads": self.block_reads,
            "scan_passes": self.scan_passes,
            "io_requests": self.io_requests,
            "bucket_probes": self.bucket_probes,
            "full_scans": self.full_scans,
        }


def block_based_full_disjunction(
    database: Database,
    block_size: Optional[int],
) -> TupleType[List[TupleSet], BlockExecutionReport]:
    """Compute ``FD(R)`` with the given execution granularity.

    ``block_size=None`` gives the paper's tuple-based execution; any positive
    value gives the block-based execution of Section 7.  The produced tuple
    sets are identical in both modes; only the I/O pattern differs.
    """
    statistics = FDStatistics()
    results = full_disjunction(
        database,
        block_size=block_size,
        statistics=statistics,
    )
    bucket_probes, full_scans = probe_counters(statistics)
    report = BlockExecutionReport(
        block_size=block_size,
        results=len(results),
        tuple_reads=statistics.tuple_reads,
        block_reads=statistics.block_reads,
        scan_passes=statistics.scan_passes,
        bucket_probes=bucket_probes,
        full_scans=full_scans,
    )
    return results, report


def compare_block_sizes(
    database: Database,
    block_sizes: Sequence[Optional[int]],
) -> List[BlockExecutionReport]:
    """Run the full disjunction once per block size and collect the reports.

    ``None`` entries request the tuple-based execution, so a typical call is
    ``compare_block_sizes(db, [None, 8, 64, 512])``.  All runs are checked to
    produce the same set of results; a mismatch raises ``AssertionError``
    because it would indicate a bug, not a legitimate outcome.
    """
    reports: List[BlockExecutionReport] = []
    reference = None
    for block_size in block_sizes:
        results, report = block_based_full_disjunction(
            database, block_size
        )
        produced = frozenset(results)
        if reference is None:
            reference = produced
        elif produced != reference:
            raise AssertionError(
                "block-based execution changed the result set "
                f"(block_size={block_size}); this should be impossible"
            )
        reports.append(report)
    return reports
