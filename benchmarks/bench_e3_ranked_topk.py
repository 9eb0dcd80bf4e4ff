"""E3 — ranked retrieval: top-(k, f) with PriorityIncrementalFD (Theorem 5.5).

For a monotonically c-determined ranking function the top-k answers arrive in
ranking order after polynomial work; the alternative is to materialise the
whole full disjunction and sort it.  The experiment compares the two on a star
workload whose output is much larger than k, for ``f_max`` (c = 1) and for a
2-determined pair ranking, and also reports the cost of brute-forcing the
top-1 answer under ``f_sum`` — the function whose top-k problem is NP-hard
(Proposition 5.1) and which the ranked algorithm therefore refuses.
"""

import time

from repro.bench.reporting import probe_counters
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.priority import top_k
from repro.core.ranking import (
    CDeterminedRanking,
    MaxRanking,
    SumRanking,
    importance_function,
    top_k_by_exhaustive_ranking,
)
from repro.workloads.generators import star_database

K_VALUES = (1, 5, 20)


def _importance(t):
    return float(sum(ord(ch) for ch in t.label) % 29)


def test_e3_ranked_topk(benchmark, report_table):
    database = star_database(spokes=5, tuples_per_relation=6, hub_domain=2, seed=2)
    imp = importance_function(_importance)
    rankings = {
        "f_max (c=1)": MaxRanking(_importance),
        "pair-sum (c=2)": CDeterminedRanking(
            2, lambda subset: sum(imp(t) for t in subset), name="pair_sum"
        ),
    }

    materialise_started = time.perf_counter()
    everything = full_disjunction(database)
    materialise_seconds = time.perf_counter() - materialise_started

    rows = []
    for name, ranking in rankings.items():
        for k in K_VALUES:
            statistics = FDStatistics()
            started = time.perf_counter()
            ranked = top_k(database, ranking, k, statistics=statistics)
            ranked_seconds = time.perf_counter() - started

            started = time.perf_counter()
            expected = top_k_by_exhaustive_ranking(everything, ranking, k)
            exhaustive_seconds = materialise_seconds + (time.perf_counter() - started)

            assert [score for _, score in ranked] == [ranking(ts) for ts in expected]
            bucket_probes, full_scans = probe_counters(statistics)
            rows.append(
                [
                    name,
                    k,
                    f"{ranked_seconds:.4f}",
                    f"{exhaustive_seconds:.4f}",
                    f"{exhaustive_seconds / ranked_seconds:.2f}x",
                    bucket_probes,
                    full_scans,
                ]
            )

    report_table(
        "E3: top-(k, f) retrieval on a 5-spoke star "
        f"(|FD| = {len(everything)})",
        ["ranking", "k", "PriorityIncrementalFD (s)", "materialise+sort (s)",
         "speedup", "bucket probes", "full scans"],
        rows,
    )

    # f_sum: rejected by the ranked algorithm, brute force is the only route.
    sum_ranking = SumRanking(_importance)
    started = time.perf_counter()
    top_k_by_exhaustive_ranking(everything, sum_ranking, 1)
    brute_force_seconds = materialise_seconds + (time.perf_counter() - started)
    report_table(
        "E3b: f_sum (not c-determined, Proposition 5.1) — brute force only",
        ["ranking", "k", "ranked algorithm", "materialise+sort (s)"],
        [["f_sum", 1, "rejected (RankingError)", f"{brute_force_seconds:.4f}"]],
    )

    ranking = MaxRanking(_importance)
    benchmark(lambda: top_k(database, ranking, 5))
