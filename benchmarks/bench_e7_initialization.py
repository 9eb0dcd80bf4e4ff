"""E7 — initialization strategies for Incomplete across the n passes (Section 7).

Computing ``FD(R)`` runs one pass per relation, and every strategy scans only
``R_i, …, R_n`` in pass ``i``.  With the default singleton initialization a
pass produces the maximal sets of that suffix and drops those that extend
through an earlier relation (each is part of an answer an earlier pass
emitted).  The reuse strategies seed pass ``i`` from earlier results and
share ``Complete`` instead.  The experiment compares the three strategies the
paper proposes — singletons, previous-results reuse, and reduced-previous
reuse — on the produced work: sets produced across the passes (dropped and
subsumed ones included), tuples read, candidate tuple sets generated, and
wall time.  All strategies produce the same full disjunction.
"""

import time

from repro.bench.reporting import probe_counters
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.initialization import STRATEGIES
from repro.workloads.generators import chain_database


def test_e7_initialization_strategies(benchmark, report_table):
    database = chain_database(
        relations=4, tuples_per_relation=16, domain_size=5, null_rate=0.1, seed=8
    )

    reference = None
    rows = []
    for strategy in STRATEGIES:
        statistics = FDStatistics()
        started = time.perf_counter()
        results = full_disjunction(
            database, use_index=True, initialization=strategy, statistics=statistics
        )
        elapsed = time.perf_counter() - started
        produced = {ts.labels() for ts in results}
        if reference is None:
            reference = produced
        assert produced == reference
        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                strategy,
                len(results),
                statistics.results,
                statistics.tuple_reads,
                statistics.candidates_generated,
                f"{elapsed:.3f}",
                bucket_probes,
                full_scans,
            ]
        )

    report_table(
        "E7: initialization strategies across the n passes "
        f"(chain of {len(database)} relations, |FD| = {len(reference)}, indexed store)",
        [
            "strategy",
            "|FD|",
            "sets produced (incl. dropped)",
            "tuple reads",
            "candidates generated",
            "wall time (s)",
            "bucket probes",
            "full scans",
        ],
        rows,
    )

    benchmark(
        lambda: full_disjunction(database, initialization="previous-results")
    )
