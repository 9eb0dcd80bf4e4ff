"""The Section 7 reuse strategies, kept in ``benchmarks/reuse_initialization.py``.

The library seeds every pass with the singletons of ``R_i``; E7 and E1
compare that with the two reuse strategies of Section 7 ("Minimizing
repeated work").  These tests keep the comparison arm honest: the seeds
respect Remarks 4.3 and 4.5, every strategy returns the naive oracle's full
disjunction, and E7's counters are pinned.  The module is loaded by path
and only read.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.naive import naive_full_disjunction
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.store import probe_counters
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, cycle_database

from tests.conftest import labels_of, reuse_initialization, small_databases

reuse = reuse_initialization()

#: The singletons of the library, then the two reuse strategies.
STRATEGIES = ("singletons", *reuse.STRATEGIES)


def _run(strategy, database, **options):
    if strategy == "singletons":
        return full_disjunction(database, **options)
    return list(reuse.reusing_full_disjunction(database, strategy, **options))


@pytest.fixture
def previous_results(tourist_db):
    """The results of the first pass (anchor Climates), i.e. all of Table 2."""
    return full_disjunction(tourist_db)


class TestPreviousResultsStrategy:
    def test_reuses_previous_results_and_covers_all_anchor_tuples(
        self, tourist_db, previous_results
    ):
        sets = reuse.previous_results_sets(
            tourist_db, "Accommodations", previous_results, tourist_db.catalog()
        )
        anchored = [ts for ts in sets if len(ts) > 1]
        assert all(ts.contains_tuple_from("Accommodations") for ts in anchored)
        covered = {
            ts.tuple_from("Accommodations").label
            for ts in sets
            if ts.tuple_from("Accommodations")
        }
        assert covered == {"a1", "a2", "a3"}

    def test_uncovered_tuples_get_singletons(self, tourist_db):
        # With no previous results every anchor tuple gets a singleton.
        sets = reuse.previous_results_sets(tourist_db, "Sites", [], tourist_db.catalog())
        assert len(sets) == 4 and all(len(ts) == 1 for ts in sets)

    def test_remark_4_5_condition_no_two_seeds_under_one_result(
        self, tourist_db, previous_results
    ):
        sets = reuse.previous_results_sets(
            tourist_db, "Sites", previous_results, tourist_db.catalog()
        )
        for result in previous_results:
            under = [ts for ts in sets if ts.issubset(result)]
            assert len(under) <= 1


class TestReducedPreviousStrategy:
    @pytest.fixture
    def sets(self, tourist_db, previous_results):
        return reuse.reduced_previous_sets(
            tourist_db, "Sites", previous_results, tourist_db.catalog()
        )

    def test_seeds_are_jcc_and_anchored(self, sets):
        assert sets, "the reduced strategy must produce seeds"
        for ts in sets:
            assert ts.is_jcc
            assert ts.contains_tuple_from("Sites")

    def test_no_seed_contains_a_tuple_of_an_earlier_relation(self, sets):
        for ts in sets:
            assert not ts.contains_tuple_from("Climates")
            assert not ts.contains_tuple_from("Accommodations")

    def test_no_seed_is_contained_in_another(self, sets):
        for first in sets:
            for second in sets:
                if first != second:
                    assert not first.issubset(second)

    def test_every_anchor_tuple_is_covered(self, sets):
        covered = set()
        for ts in sets:
            member = ts.tuple_from("Sites")
            if member is not None:
                covered.add(member.label)
        assert covered == {"s1", "s2", "s3", "s4"}


def test_unknown_strategy_raises(tourist_db):
    with pytest.raises(ValueError, match="unknown reuse strategy 'bogus'"):
        next(reuse.reusing_full_disjunction(tourist_db, "bogus"))


def test_covered_tuples(previous_results):
    covered = reuse.covered_tuples(previous_results, "Accommodations")
    assert {t.label for t in covered} == {"a1", "a2", "a3"}


def test_restrict_to_relations(tourist_db):
    catalog = tourist_db.catalog()
    ts = TupleSet([tourist_db.tuple_by_label(label) for label in ("c1", "a2", "s1")], catalog)
    restricted = reuse.restrict_to_relations(ts, {"Climates", "Sites"})
    assert restricted.labels() == {"c1", "s1"}
    assert restricted.catalog is catalog


class TestEveryStrategyComputesTheFullDisjunction:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_on_chain_workload(self, strategy):
        database = chain_database(relations=3, tuples_per_relation=6, domain_size=3, seed=5)
        expected = labels_of(naive_full_disjunction(database))
        produced = _run(strategy, database)
        assert labels_of(produced) == expected
        assert len(produced) == len(expected)  # no duplicates either

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_on_cyclic_workload(self, strategy):
        database = cycle_database(relations=3, tuples_per_relation=5, domain_size=2, seed=7)
        expected = labels_of(naive_full_disjunction(database))
        produced = _run(strategy, database)
        assert labels_of(produced) == expected
        assert len(produced) == len(expected)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(database=small_databases(max_relations=3, max_tuples=3))
def test_the_strategies_agree_with_the_singletons(database):
    reference = labels_of(full_disjunction(database))
    for strategy in reuse.STRATEGIES:
        produced = _run(strategy, database)
        assert labels_of(produced) == reference
        assert len(produced) == len(reference)


#: E7's counters per strategy: sets produced, tuple reads, candidates
#: generated and bucket probes (``benchmarks/artifacts/BENCH_E7.json``).
E7_COUNTERS = {
    "singletons": (476, 53360, 24262, 12557),
    "previous-results": (1180, 94032, 43592, 26031),
    "reduced-previous": (476, 52816, 24262, 12709),
}


def test_e7_counters_are_pinned():
    """E7's input, indexed and drained: every strategy returns the same 316
    answers, and the work each does is the committed table's."""
    database = chain_database(
        relations=4, tuples_per_relation=16, domain_size=5, null_rate=0.1, seed=8
    )
    answers = {}
    for strategy, expected in E7_COUNTERS.items():
        statistics = FDStatistics()
        results = _run(strategy, database, statistics=statistics)
        answers[strategy] = labels_of(results)
        assert len(results) == 316
        bucket_probes, full_scans = probe_counters(statistics)
        assert full_scans == 0
        assert (
            statistics.results,
            statistics.tuple_reads,
            statistics.candidates_generated,
            bucket_probes,
        ) == expected
    assert len({frozenset(labels) for labels in answers.values()}) == 1
