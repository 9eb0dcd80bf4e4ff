"""E7 — initialization strategies for Incomplete across the n passes (Section 7).

Computing ``FD(R)`` runs one pass per relation, and every strategy scans only
``R_i, …, R_n`` in pass ``i``.  With the singleton initialization, the only
one the library runs, a pass produces the maximal sets of that suffix and
drops those that extend through an earlier relation (each is part of an
answer an earlier pass emitted, so a pass drops at most one set per earlier
answer).  The reuse strategies of ``reuse_initialization.py``, a sibling of
this module, seed pass ``i`` from earlier results and share ``Complete``
instead.  The experiment compares the three strategies the paper proposes —
singletons, previous-results reuse, and reduced-previous reuse — on the
produced work: sets produced across the passes (dropped and subsumed ones
included), tuples read, candidate tuple sets generated, bucket probes, and
wall time (median of five runs in rotated order, over a catalog built
beforehand).  All strategies produce the same full disjunction.

Finding: the singletons win.  ``previous-results`` produces 2.5× the sets
and 1.8× the candidates of the singletons; ``reduced-previous`` does the
same counted work as the singletons but spends extra time building its
seeds.  Both reuse strategies emit the answers in another order than the
singletons, which the last column reports.
"""

import statistics as stats
import time

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.store import probe_counters
from repro.workloads.generators import chain_database

from reuse_initialization import STRATEGIES as REUSE, reusing_full_disjunction

#: Timed runs per strategy; each round rotates which strategy runs first.
REPEATS = 5


def _run(strategy, database, statistics):
    if strategy == "singletons":
        return full_disjunction(database, statistics=statistics)
    return list(
        reusing_full_disjunction(database, strategy, statistics=statistics)
    )


def test_e7_initialization_strategies(benchmark, report_table):
    database = chain_database(
        relations=4, tuples_per_relation=16, domain_size=5, null_rate=0.1, seed=8
    )
    database.catalog()
    strategies = ("singletons", *REUSE)

    walls = {strategy: [] for strategy in strategies}
    runs = {}
    for round_ in range(REPEATS):
        shift = round_ % len(strategies)
        for strategy in strategies[shift:] + strategies[:shift]:
            statistics = FDStatistics()
            started = time.perf_counter()
            results = _run(strategy, database, statistics)
            walls[strategy].append(time.perf_counter() - started)
            run = ([ts.labels() for ts in results], statistics)
            if strategy in runs:  # the answers and the work repeat exactly
                assert run[0] == runs[strategy][0]
                assert run[1].as_dict() == runs[strategy][1].as_dict()
            runs[strategy] = run

    reference = runs["singletons"][0]
    rows = []
    for strategy in strategies:
        answers, statistics = runs[strategy]
        assert set(answers) == set(reference)
        assert len(answers) == len(reference)
        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                strategy,
                len(answers),
                statistics.results,
                statistics.tuple_reads,
                statistics.candidates_generated,
                f"{stats.median(walls[strategy]):.3f}",
                bucket_probes,
                full_scans,
                "yes" if answers == reference else "no",
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
            "singletons' order",
        ],
        rows,
    )

    benchmark(lambda: list(reusing_full_disjunction(database, "previous-results")))
