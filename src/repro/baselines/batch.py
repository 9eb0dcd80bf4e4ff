"""A batch baseline in the spirit of Kanza & Sagiv's algorithm [3].

The paper compares ``IncrementalFD`` against the PODS 2003 algorithm of
Kanza and Sagiv, whose two relevant properties are:

1. it is a *batch* algorithm — "does not return any tuples until all
   processing is complete (and cannot easily be adapted to do so)";
2. its total runtime is a higher-degree polynomial, ``O(s²·n⁵·f²)`` against
   ``O(s·n³·f²)`` for the driver built on ``IncrementalFD``, largely because
   every result is recomputed once per member tuple and duplicate elimination
   scans the accumulated result set.

The original pseudocode is not reproduced in the paper, so this module
implements a behavioural stand-in with exactly those two properties (see
DESIGN.md §4): it runs a full pass per relation *without* the early
"contains a tuple of an earlier relation" skip, buffers everything, and
eliminates duplicates at the end with a quadratic subsumption scan.  The
result set is identical to ``FD(R)``; only the cost profile differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.relational.database import Database
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.tupleset import TupleSet


@dataclass
class BatchStatistics:
    """Work counters of one :class:`BatchFD` run."""

    raw_results: int = 0
    duplicate_results: int = 0
    final_results: int = 0
    dedup_comparisons: int = 0
    per_pass: List[FDStatistics] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "raw_results": self.raw_results,
            "duplicate_results": self.duplicate_results,
            "final_results": self.final_results,
            "dedup_comparisons": self.dedup_comparisons,
            "elapsed_seconds": self.elapsed_seconds,
        }


class BatchFD:
    """Batch computation of ``FD(R)``: nothing is delivered before everything is done."""

    def __init__(self, database: Database):
        self._database = database
        self.statistics = BatchStatistics()

    def compute(self) -> List[TupleSet]:
        """Compute the whole full disjunction and only then return it."""
        started = time.perf_counter()
        buffered: List[TupleSet] = []
        for relation in self._database.relations:
            pass_statistics = FDStatistics()
            # Every pass is run to completion; results are buffered, never
            # streamed, and no pass skips results found by earlier passes.
            for result in incremental_fd(
                self._database,
                relation.name,
                statistics=pass_statistics,
            ):
                buffered.append(result)
            self.statistics.per_pass.append(pass_statistics)
        self.statistics.raw_results = len(buffered)

        # Quadratic duplicate elimination over the buffered results: the
        # behaviour the paper attributes to the batch algorithm.
        unique: List[TupleSet] = []
        for candidate in buffered:
            duplicate = False
            for kept in unique:
                self.statistics.dedup_comparisons += 1
                if candidate == kept:
                    duplicate = True
                    break
            if duplicate:
                self.statistics.duplicate_results += 1
            else:
                unique.append(candidate)
        self.statistics.final_results = len(unique)
        self.statistics.elapsed_seconds = time.perf_counter() - started
        return unique


def batch_full_disjunction(
    database: Database,
    statistics: Optional[BatchStatistics] = None,
) -> List[TupleSet]:
    """Convenience wrapper around :class:`BatchFD`."""
    algorithm = BatchFD(database)
    results = algorithm.compute()
    if statistics is not None:
        statistics.raw_results = algorithm.statistics.raw_results
        statistics.duplicate_results = algorithm.statistics.duplicate_results
        statistics.final_results = algorithm.statistics.final_results
        statistics.dedup_comparisons = algorithm.statistics.dedup_comparisons
        statistics.elapsed_seconds = algorithm.statistics.elapsed_seconds
        statistics.per_pass = algorithm.statistics.per_pass
    return results
