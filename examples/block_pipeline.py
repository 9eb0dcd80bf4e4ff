"""Database-system execution features (Section 7) on a synthetic workload.

Section 7 describes how ``IncrementalFD`` would be integrated into a real
query processor: block-based execution and hash indexing of the
``Complete``/``Incomplete`` lists.  This script exercises both on a chain
workload and reports the machine-independent work counters the library keeps.

Run with::

    python examples/block_pipeline.py
"""

from __future__ import annotations

import time

from repro import compare_block_sizes, full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.store import probe_counters
from repro.workloads.generators import chain_database


def block_based_execution(database) -> None:
    print("Block-based execution (simulated I/O requests per block size)")
    print("==============================================================")
    reports = compare_block_sizes(database, [None, 4, 16, 64])
    print(f"{'block size':>12}  {'results':>8}  {'tuple reads':>12}  {'I/O requests':>13}")
    for report in reports:
        size = "tuple-based" if report.block_size is None else str(report.block_size)
        print(
            f"{size:>12}  {report.results:>8}  {report.tuple_reads:>12}  {report.io_requests:>13}"
        )
    print("Identical answers in every mode; larger blocks mean fewer I/O requests.\n")


def indexing(database) -> None:
    print("Hash-indexed Complete/Incomplete (Section 7)")
    print("============================================")
    statistics = FDStatistics()
    started = time.perf_counter()
    results = full_disjunction(database, statistics=statistics)
    elapsed = time.perf_counter() - started
    scanned = statistics.extras["complete_sets_scanned"] + statistics.extras[
        "incomplete_sets_scanned"
    ]
    bucket_probes, full_scans = probe_counters(statistics)
    print(f"{len(results)} answers in {elapsed:.4f} s")
    print(
        f"the probes scanned {scanned} stored sets in {bucket_probes} "
        f"buckets and groups ({full_scans} full scans)"
    )
    print("E6 (benchmarks/bench_e6_indexing.py) compares the paper's linear lists.")


def main() -> None:
    database = chain_database(
        relations=4, tuples_per_relation=18, domain_size=6, null_rate=0.1, seed=3
    )
    print(
        f"Workload: chain of {len(database)} relations, "
        f"{database.tuple_count()} tuples total\n"
    )
    block_based_execution(database)
    indexing(database)


if __name__ == "__main__":
    main()
