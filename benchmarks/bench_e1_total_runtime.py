"""E1 — total runtime: IncrementalFD driver vs. the batch baseline vs. the oracle.

Corollary 4.9 bounds the driver by ``O(s·n³·f²)``; the paper credits [3] with
``O(s²·n⁵·f²)`` and highlights that IncrementalFD also wins in practice.  The
experiment sweeps a chain workload of growing size and reports the total wall
time of the incremental driver (with the Section 7 index, on the paper's
linear lists of ``linear_lists.py``, and with the reduced-previous reuse
seeds of ``reuse_initialization.py``, both siblings of this module), of the
batch stand-in baseline (indexed) and — on the smallest instance — of the
brute-force oracle.  The expected shape: the
incremental driver is consistently the fastest complete method and the gap
grows with the input.
"""

import time

from repro.baselines.batch import batch_full_disjunction
from repro.baselines.naive import naive_full_disjunction
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.workloads.generators import chain_database

from linear_lists import linear_lists
from reuse_initialization import reusing_full_disjunction

SIZES = (6, 12, 18, 24)


def _timed(function):
    started = time.perf_counter()
    result = function()
    return len(result), time.perf_counter() - started


def _sets_scanned(statistics: FDStatistics) -> int:
    """Total Complete+Incomplete sets subjected to a subsumption/merge test."""
    return statistics.extras.get("complete_sets_scanned", 0) + statistics.extras.get(
        "incomplete_sets_scanned", 0
    )


def test_e1_total_runtime_vs_baselines(benchmark, report_table):
    rows = []
    for tuples_per_relation in SIZES:
        database = chain_database(
            relations=4,
            tuples_per_relation=tuples_per_relation,
            domain_size=5,
            null_rate=0.1,
            seed=1,
        )
        plain_statistics = FDStatistics()
        with linear_lists():
            fd_size, incremental_seconds = _timed(
                lambda: full_disjunction(database, statistics=plain_statistics)
            )
        indexed_statistics = FDStatistics()
        _, indexed_seconds = _timed(
            lambda: full_disjunction(database, statistics=indexed_statistics)
        )
        _, reuse_seconds = _timed(
            lambda: list(reusing_full_disjunction(database, "reduced-previous"))
        )
        best_seconds = min(incremental_seconds, indexed_seconds, reuse_seconds)
        batch_size, batch_seconds = _timed(lambda: batch_full_disjunction(database))
        assert batch_size == fd_size
        if tuples_per_relation == SIZES[0]:
            oracle_size, oracle_seconds = _timed(lambda: naive_full_disjunction(database))
            assert oracle_size == fd_size
            oracle_cell = f"{oracle_seconds:.3f}"
        else:
            oracle_cell = "-"
        plain_scanned = _sets_scanned(plain_statistics)
        indexed_scanned = _sets_scanned(indexed_statistics)
        rows.append(
            [
                tuples_per_relation,
                database.total_size(),
                fd_size,
                f"{incremental_seconds:.3f}",
                f"{indexed_seconds:.3f}",
                f"{reuse_seconds:.3f}",
                f"{batch_seconds:.3f}",
                oracle_cell,
                f"{batch_seconds / best_seconds:.2f}x",
                plain_scanned,
                indexed_scanned,
                f"{plain_scanned / max(indexed_scanned, 1):.1f}x",
            ]
        )

    report_table(
        "E1: total runtime on chain workloads (4 relations, growing size)",
        [
            "tuples/rel",
            "input size s",
            "|FD|",
            "IncrementalFD (s)",
            "IncrementalFD+index (s)",
            "IncrementalFD+index+reuse (s)",
            "Batch baseline (s)",
            "Naive oracle (s)",
            "batch/best incremental",
            "sets scanned (lists)",
            "sets scanned (indexed)",
            "scan drop",
        ],
        rows,
    )

    # The timed benchmark sample: the complete driver on the mid-size instance.
    database = chain_database(
        relations=4, tuples_per_relation=12, domain_size=5, null_rate=0.1, seed=1
    )
    benchmark(lambda: full_disjunction(database))
