"""Work per answer as the input and ``k`` grow, for the exact engine.

The paper promises incremental polynomial time (Theorem 4.10): the k-th
answer after work polynomial in the input and ``k``.  A test that pins the
counters at one size catches any change in work, but not a change in how
work grows.  These tests run the first ``k`` answers of a 5-relation chain
on the library's one path, the Section 7 hash index, and bound the growth
of its deterministic counters: at most linear in ``n`` (tuples per
relation) and, per answer, flat in ``k``.  On the paper's linear lists
(E1's and E6's comparison arm), each Line 14 probe walks every waiting set
and ``incomplete_sets_scanned`` grows about 3.3–3.9× per doubling of
``n``, which the first test refuses.  The Python work before
the first answer must not grow with ``n`` either: Line 1 seeds ``Incomplete``
with a singleton per tuple of the anchor relation, and the pool builds a
seed's tuple set only when it is needed, which the last test pins.
"""

from __future__ import annotations

import pytest

from repro.core.full_disjunction import first_k, full_disjunction_sets
from repro.core.incremental import FDStatistics
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database

GROWTH_COUNTERS = ("tuple_reads", "candidates_generated", "incomplete_sets_scanned")


def _work(n: int, k: int) -> dict:
    """The counters of the first ``k`` answers of the 5×n chain."""
    database = chain_database(
        relations=5, tuples_per_relation=n, domain_size=n // 2, null_rate=0.05, seed=0
    )
    statistics = FDStatistics()
    assert len(first_k(database, k, statistics=statistics)) == k
    return statistics.as_dict()


def test_first_k_work_grows_at_most_linearly_in_n():
    """Each doubling of ``n`` from 50 to 400 at most 2.2× each counter
    (2.0× for reads and candidates, 1.3–1.9× for sets scanned), and no
    probe walks a whole container.  The second check is the one a walk of
    ``Incomplete`` trips: the bulk singleton settle leaves it few probes, so
    sets scanned would still grow under 2.2× (4,882 to 18,308)."""
    runs = [_work(n, 10) for n in (50, 100, 200, 400)]
    for smaller, larger in zip(runs, runs[1:]):
        for counter in GROWTH_COUNTERS:
            assert larger[counter] <= 2.2 * smaller[counter], counter
    for run in runs:
        assert run["complete_full_scans"] == run["incomplete_full_scans"] == 0


@pytest.mark.parametrize("counter", ["tuple_reads", "candidates_generated"])
def test_first_k_work_per_answer_is_flat_in_k(counter):
    """Each doubling of ``k`` from 5 to 40 at most 1.1× the counter per
    answer (per-answer reads fall from 2,400 to 2,100 at ``n`` = 200)."""
    ks = (5, 10, 20, 40)
    per_answer = [_work(200, k)[counter] / k for k in ks]
    for smaller, larger in zip(per_answer, per_answer[1:]):
        assert larger <= 1.1 * smaller


def test_tuple_sets_built_before_the_first_answers_do_not_grow_with_n(monkeypatch):
    """``TupleSet`` constructions up to the first answer and up to the 10th,
    on the 5×n chain: 1 and 41–53 for every ``n`` from 50 to 400,
    where building every seed up front made them ``n`` and ``n`` + 30–50."""
    built = [0]
    construct = TupleSet.__init__

    def counted(self, *args, **options):
        built[0] += 1
        construct(self, *args, **options)

    monkeypatch.setattr(TupleSet, "__init__", counted)
    first, tenth = [], []
    for n in (50, 100, 200, 400):
        database = chain_database(
            relations=5, tuples_per_relation=n, domain_size=n // 2, null_rate=0.05, seed=0
        )
        database.catalog()
        built[0] = 0
        results = full_disjunction_sets(database)
        for count, _ in enumerate(results, 1):
            if count == 1:
                first.append(built[0])
            if count == 10:
                tenth.append(built[0])
                break
        results.close()
    assert len(set(first)) == 1, first
    assert all(larger <= smaller for smaller, larger in zip(tenth, tenth[1:])), tenth
