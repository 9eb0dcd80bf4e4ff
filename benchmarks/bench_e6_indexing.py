"""E6 — hash-indexing Complete/Incomplete (Section 7) and the tuple-set representation.

Section 7 recommends hashing the two lists on their ``R_i`` tuple so the
subsumption (Line 11) and merge (Line 14) probes only scan the relevant
bucket.  The experiment measures wall time and the number of stored sets
scanned by the library's dual-indexed store (:mod:`repro.core.store`) and
by the paper's linear lists (``linear_lists.py``, a sibling of this
module), on workloads whose output is large enough for the quadratic list
management to matter.  A second table micro-benchmarks the paper's sorted-triple
representation against the interned bitset ``TupleSet`` representation on the
Line-14 consistency test.

Set ``REPRO_BENCH_SMOKE=1`` to restrict the sweep to the smallest workload
(used by the CI smoke job).
"""

import os
import time

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.triples import TripleList, merge_join_consistent
from repro.core.tupleset import TupleSet
from repro.workloads.generators import star_database

from linear_lists import linear_lists


def _run(database):
    statistics = FDStatistics()
    started = time.perf_counter()
    results = list(
        incremental_fd(database, database.relation_names[0], statistics=statistics)
    )
    elapsed = time.perf_counter() - started
    return results, elapsed, statistics


def _run_on_lists(database):
    with linear_lists():
        return _run(database)


def _sets_scanned(statistics):
    return statistics.extras.get("complete_sets_scanned", 0) + statistics.extras.get(
        "incomplete_sets_scanned", 0
    )


def test_e6_indexing_complete_and_incomplete(benchmark, report_table):
    workloads = ((4, 6),) if os.environ.get("REPRO_BENCH_SMOKE") else ((4, 6), (5, 6))
    rows = []
    for spokes, per_relation in workloads:
        database = star_database(
            spokes=spokes, tuples_per_relation=per_relation, hub_domain=2, seed=4
        )
        plain_results, plain_seconds, plain_statistics = _run_on_lists(database)
        indexed_results, indexed_seconds, indexed_statistics = _run(database)
        assert {ts.labels() for ts in plain_results} == {
            ts.labels() for ts in indexed_results
        }
        plain_scanned = _sets_scanned(plain_statistics)
        indexed_scanned = _sets_scanned(indexed_statistics)
        # The headline claim of the indexed store layer: the subsumption and
        # merge probes touch at least 2x fewer stored sets than linear lists.
        assert plain_scanned >= 2 * indexed_scanned
        rows.append(
            [
                f"star {spokes}x{per_relation}",
                len(plain_results),
                f"{plain_seconds:.3f}",
                f"{indexed_seconds:.3f}",
                f"{plain_seconds / indexed_seconds:.2f}x",
                plain_scanned,
                indexed_scanned,
                f"{plain_scanned / max(indexed_scanned, 1):.1f}x",
            ]
        )

    report_table(
        "E6: IncrementalFD with and without the Section 7 dual-indexed store",
        [
            "workload",
            "|FD_1|",
            "linear lists (s)",
            "indexed store (s)",
            "speedup",
            "sets scanned (lists)",
            "sets scanned (indexed)",
            "scan drop",
        ],
        rows,
    )

    # Micro-benchmark of the two tuple-set representations on the Line-14 test.
    database = star_database(spokes=4, tuples_per_relation=6, hub_domain=2, seed=4)
    results = full_disjunction(database)[:40]
    pairs = [(a, b) for a in results for b in results][:800]

    started = time.perf_counter()
    for first, second in pairs:
        first.union_is_jcc(second)
    tuple_set_seconds = time.perf_counter() - started

    triple_lists = {ts: TripleList.from_tuple_set(ts) for ts in results}
    started = time.perf_counter()
    for first, second in pairs:
        merge_join_consistent(triple_lists[first], triple_lists[second])
    triple_seconds = time.perf_counter() - started

    report_table(
        "E6b: Line-14 consistency test — interned bitset TupleSet vs. sorted "
        f"triple lists ({len(pairs)} pairs)",
        ["representation", "seconds"],
        [
            ["TupleSet (interned bitset masks)", f"{tuple_set_seconds:.4f}"],
            ["sorted triple lists (paper's structure)", f"{triple_seconds:.4f}"],
        ],
    )

    benchmark(lambda: _run(database))
