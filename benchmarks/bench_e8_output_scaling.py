"""E8 — output-sensitivity: the result may be exponential in n (Section 3).

The size of ``FD(R_1, …, R_n)`` can grow exponentially with the number of
relations, which is why the paper analyses the algorithms under input–output
complexity and why incremental delivery matters.  On star schemas with a
growing number of spokes the experiment reports the output size, the total
runtime, the runtime per produced answer, and the time to the first 10
answers.  Expected shape: the output (and hence the total time) explodes with
the spoke count, the per-answer cost grows only mildly, and the time to the
first 10 answers stays essentially flat — the PINC behaviour.
"""

import time

from repro.bench.reporting import probe_counters
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import FDStatistics
from repro.workloads.generators import star_database

SPOKES = (2, 3, 4, 5)


def test_e8_output_scaling_on_stars(benchmark, report_table):
    rows = []
    for spokes in SPOKES:
        database = star_database(spokes=spokes, tuples_per_relation=6, hub_domain=2, seed=6)
        statistics = FDStatistics()
        started = time.perf_counter()
        results = full_disjunction(database, statistics=statistics)
        total_seconds = time.perf_counter() - started

        started = time.perf_counter()
        prefix = first_k(database, 10)
        first_10_seconds = time.perf_counter() - started
        assert len(prefix) == min(10, len(results))

        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                spokes,
                database.tuple_count(),
                len(results),
                f"{total_seconds:.3f}",
                f"{1000.0 * total_seconds / len(results):.2f}",
                f"{first_10_seconds:.4f}",
                bucket_probes,
                full_scans,
            ]
        )

    report_table(
        "E8: output size and runtime on star schemas (6 tuples per relation, 2 hub values)",
        [
            "spokes n",
            "input tuples",
            "|FD|",
            "total time (s)",
            "ms per answer",
            "time to first 10 (s)",
            "bucket probes",
            "full scans",
        ],
        rows,
    )

    database = star_database(spokes=4, tuples_per_relation=6, hub_domain=2, seed=6)
    benchmark(lambda: full_disjunction(database))
