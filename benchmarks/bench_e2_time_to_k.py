"""E2 — incremental delivery: time to the first k answers (Theorem 4.10, PINC).

The defining property of ``IncrementalFD`` is that k answers cost polynomial
work in the input and k, while a batch algorithm returns nothing until the
entire (possibly exponential) result is computed.  On a star workload whose
full disjunction is large, the experiment measures the wall time to obtain the
first k answers from the streaming driver against the full batch time — the
batch baseline's time-to-first-answer equals its total time by construction.
"""

import time

from repro.baselines.batch import batch_full_disjunction
from repro.bench.reporting import probe_counters
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import FDStatistics
from repro.workloads.generators import star_database

K_VALUES = (1, 5, 25, 100)


def test_e2_time_to_first_k_answers(benchmark, report_table):
    database = star_database(spokes=5, tuples_per_relation=6, hub_domain=2, seed=0)

    total_statistics = FDStatistics()
    total_started = time.perf_counter()
    full_result = full_disjunction(database, statistics=total_statistics)
    incremental_total = time.perf_counter() - total_started

    batch_started = time.perf_counter()
    batch_result = batch_full_disjunction(database)
    batch_total = time.perf_counter() - batch_started
    assert {ts.labels() for ts in batch_result} == {ts.labels() for ts in full_result}

    rows = []
    for k in K_VALUES:
        statistics = FDStatistics()
        started = time.perf_counter()
        prefix = first_k(database, k, statistics=statistics)
        elapsed = time.perf_counter() - started
        assert len(prefix) == min(k, len(full_result))
        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                k,
                f"{elapsed:.4f}",
                f"{batch_total:.4f}",
                f"{elapsed / incremental_total:.1%}",
                bucket_probes,
                full_scans,
            ]
        )
    total_bucket_probes, total_full_scans = probe_counters(total_statistics)
    rows.append(
        [
            f"all ({len(full_result)})",
            f"{incremental_total:.4f}",
            f"{batch_total:.4f}",
            "100.0%",
            total_bucket_probes,
            total_full_scans,
        ]
    )

    report_table(
        "E2: time to the first k answers on a 5-spoke star "
        f"(|FD| = {len(full_result)})",
        ["k", "IncrementalFD first-k (s)", "Batch time-to-first (s)",
         "fraction of full incremental run", "bucket probes", "full scans"],
        rows,
    )

    benchmark(lambda: first_k(database, 10))
