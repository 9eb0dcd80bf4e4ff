"""E9 — the outerjoin baseline of Rajaraman & Ullman [2] vs. IncrementalFD.

Reference [2] computes full disjunctions with a sequence of binary full
outerjoins, but only for γ-acyclic schemas; the paper's algorithm works for
arbitrary connected relations.  The experiment checks, for a γ-acyclic chain,
a γ-acyclic star, the (γ-acyclic) tourist schema and a cyclic schema, whether
*any* outerjoin order reproduces ``FD(R)``, and compares the runtime of the
best outerjoin sequence against IncrementalFD where one exists.  Expected
shape: an order exists exactly for the γ-acyclic schemas; for the cycle no
order works and only IncrementalFD computes the full disjunction.
"""

import time

from repro.baselines.acyclicity import is_gamma_acyclic
from repro.baselines.outerjoin import exists_correct_outerjoin_order, outerjoin_sequence
from repro.bench.reporting import probe_counters
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.workloads.generators import chain_database, cycle_database, star_database
from repro.workloads.tourist import tourist_database


def _workloads():
    return [
        ("tourist (Table 1)", tourist_database()),
        ("chain, 3 relations", chain_database(relations=3, tuples_per_relation=8,
                                               domain_size=4, null_rate=0.1, seed=12)),
        ("star, 3 spokes", star_database(spokes=3, tuples_per_relation=5,
                                         hub_domain=2, seed=12)),
        ("cycle, 3 relations", cycle_database(relations=3, tuples_per_relation=6,
                                              domain_size=3, null_rate=0.0, seed=12)),
    ]


def test_e9_outerjoin_baseline(benchmark, report_table):
    rows = []
    for name, database in _workloads():
        gamma = is_gamma_acyclic(database)

        statistics = FDStatistics()
        started = time.perf_counter()
        reference = full_disjunction(database, statistics=statistics)
        incremental_seconds = time.perf_counter() - started

        order = exists_correct_outerjoin_order(database, reference)
        if order is not None:
            started = time.perf_counter()
            outerjoin_sequence(database, order)
            outerjoin_seconds = f"{time.perf_counter() - started:.3f}"
            order_cell = " ⟗ ".join(order)
        else:
            outerjoin_seconds = "-"
            order_cell = "none exists"
        # [2]'s applicability matches γ-acyclicity on these workloads.
        assert (order is not None) == gamma

        bucket_probes, full_scans = probe_counters(statistics)
        rows.append(
            [
                name,
                "yes" if gamma else "no",
                len(reference),
                f"{incremental_seconds:.3f}",
                order_cell,
                outerjoin_seconds,
                bucket_probes,
                full_scans,
            ]
        )

    report_table(
        "E9: outerjoin sequences [2] vs. IncrementalFD",
        [
            "workload",
            "γ-acyclic",
            "|FD|",
            "IncrementalFD (s)",
            "correct outerjoin order",
            "outerjoin sequence (s)",
            "bucket probes",
            "full scans",
        ],
        rows,
    )

    database = tourist_database()
    benchmark(lambda: outerjoin_sequence(database, ["Accommodations", "Sites", "Climates"]))
