"""E4 — approximate full disjunctions on dirty data (Theorem 6.6).

Three unreliable sources describe the same entities with spelling noise.  The
experiment sweeps the threshold τ for ``A_min`` with an edit-distance
similarity and reports, for each τ, the number of answers, how many answers
link records from two or more sources, the largest answer and the runtime.
The expected shape: τ = 1 behaves like the exact full disjunction (few links,
typos keep records apart); lowering τ monotonically increases linking, at a
moderate runtime cost — and the algorithm stays incremental throughout.
"""

import time

from repro.bench.reporting import probe_counters
from repro.core.approx import approx_full_disjunction
from repro.core.approx_join import EditDistanceSimilarity, MinJoin
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.workloads.dirty import dirty_sources_database

THRESHOLDS = (1.0, 0.9, 0.8, 0.7, 0.6)


def test_e4_threshold_sweep(benchmark, report_table):
    # Fully reliable sources: the τ sweep then isolates the similarity effect
    # (with τ = 1 the result coincides with the exact full disjunction).
    # Source reliabilities below 1 additionally prune whole sources once τ
    # exceeds them — that effect is exercised by the unit tests instead.
    database = dirty_sources_database(
        entities=20,
        sources=3,
        coverage=0.9,
        typo_rate=0.35,
        null_rate=0.05,
        seed=11,
        source_reliability=[1.0, 1.0, 1.0],
    )
    amin = MinJoin(EditDistanceSimilarity())

    exact = full_disjunction(database)
    exact_linked = sum(1 for ts in exact if len(ts) > 1)

    rows = [
        [
            "exact FD",
            len(exact),
            exact_linked,
            max(len(ts) for ts in exact),
            "-",
            "-",
            "-",
        ]
    ]
    previous_linked = None
    for threshold in THRESHOLDS:
        statistics = FDStatistics()
        started = time.perf_counter()
        results = approx_full_disjunction(
            database, amin, threshold, statistics=statistics
        )
        elapsed = time.perf_counter() - started
        linked = sum(1 for ts in results if len(ts) > 1)
        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                f"A_min, τ = {threshold:.1f}",
                len(results),
                linked,
                max(len(ts) for ts in results),
                f"{elapsed:.3f}",
                bucket_probes,
                full_scans,
            ]
        )
        if previous_linked is not None:
            assert linked >= previous_linked  # lowering τ links at least as much
        previous_linked = linked
    assert previous_linked >= exact_linked

    report_table(
        "E4: (A_min, τ)-approximate full disjunction of 3 dirty sources "
        f"({database.tuple_count()} records)",
        ["configuration", "answers", "answers linking ≥ 2 sources",
         "largest answer", "runtime (s)", "bucket probes", "full scans"],
        rows,
    )

    benchmark(lambda: approx_full_disjunction(database, amin, 0.8))
