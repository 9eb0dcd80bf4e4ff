"""Tests for the Section 7 initialization strategies of ``Incomplete``."""

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.core.initialization import (
    STRATEGIES,
    covered_tuples,
    earlier_relations,
    initial_sets,
    previous_results_sets,
    reduced_previous_sets,
    singleton_sets,
)
from repro.core.scanner import make_scanner
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, cycle_database
from repro.baselines.naive import naive_full_disjunction

from tests.conftest import labels_of


@pytest.fixture
def previous_results(tourist_db):
    """The results of the first pass (anchor Climates), i.e. all of Table 2."""
    return full_disjunction(tourist_db)


class TestSingletonStrategy:
    def test_one_singleton_per_anchor_tuple(self, tourist_db):
        sets = singleton_sets(tourist_db, "Sites", tourist_db.catalog())
        assert len(sets) == 4
        assert all(len(ts) == 1 for ts in sets)
        assert {next(iter(ts)).label for ts in sets} == {"s1", "s2", "s3", "s4"}


class TestPreviousResultsStrategy:
    def test_reuses_previous_results_and_covers_all_anchor_tuples(
        self, tourist_db, previous_results
    ):
        sets = previous_results_sets(tourist_db, "Accommodations", previous_results, tourist_db.catalog())
        anchored = [ts for ts in sets if len(ts) > 1]
        assert all(ts.contains_tuple_from("Accommodations") for ts in anchored)
        covered = {ts.tuple_from("Accommodations").label for ts in sets if ts.tuple_from("Accommodations")}
        assert covered == {"a1", "a2", "a3"}

    def test_uncovered_tuples_get_singletons(self, tourist_db):
        # With no previous results every anchor tuple gets a singleton.
        sets = previous_results_sets(tourist_db, "Sites", [], tourist_db.catalog())
        assert len(sets) == 4 and all(len(ts) == 1 for ts in sets)

    def test_remark_4_5_condition_no_two_seeds_under_one_result(
        self, tourist_db, previous_results
    ):
        sets = previous_results_sets(tourist_db, "Sites", previous_results, tourist_db.catalog())
        for result in previous_results:
            under = [ts for ts in sets if ts.issubset(result)]
            assert len(under) <= 1


class TestReducedPreviousStrategy:
    def test_seeds_are_jcc_and_anchored(self, tourist_db, previous_results):
        sets = reduced_previous_sets(tourist_db, "Sites", previous_results, tourist_db.catalog())
        assert sets, "the reduced strategy must produce seeds"
        for ts in sets:
            assert ts.is_jcc
            assert ts.contains_tuple_from("Sites")

    def test_no_seed_contains_a_tuple_of_an_earlier_relation(
        self, tourist_db, previous_results
    ):
        sets = reduced_previous_sets(tourist_db, "Sites", previous_results, tourist_db.catalog())
        for ts in sets:
            assert not ts.contains_tuple_from("Climates")
            assert not ts.contains_tuple_from("Accommodations")

    def test_no_seed_is_contained_in_another(self, tourist_db, previous_results):
        sets = reduced_previous_sets(tourist_db, "Sites", previous_results, tourist_db.catalog())
        for first in sets:
            for second in sets:
                if first != second:
                    assert not first.issubset(second)

    def test_every_anchor_tuple_is_covered(self, tourist_db, previous_results):
        sets = reduced_previous_sets(tourist_db, "Sites", previous_results, tourist_db.catalog())
        covered = set()
        for ts in sets:
            member = ts.tuple_from("Sites")
            if member is not None:
                covered.add(member.label)
        assert covered == {"s1", "s2", "s3", "s4"}


class TestDispatchAndHelpers:
    def test_initial_sets_dispatch(self, tourist_db):
        for strategy in STRATEGIES:
            sets = initial_sets(strategy, tourist_db, "Climates", [], tourist_db.catalog())
            assert sets and all(isinstance(ts, TupleSet) for ts in sets)

    def test_unknown_strategy_raises(self, tourist_db):
        with pytest.raises(ValueError):
            initial_sets("bogus", tourist_db, "Climates", [], tourist_db.catalog())

    def test_covered_tuples(self, tourist_db, previous_results):
        covered = covered_tuples(previous_results, "Accommodations")
        assert {t.label for t in covered} == {"a1", "a2", "a3"}

    def test_earlier_relations(self, tourist_db):
        assert earlier_relations(tourist_db, "Climates") == set()
        assert earlier_relations(tourist_db, "Sites") == {"Climates", "Accommodations"}

    @pytest.mark.parametrize("block_size", [None, 2])
    def test_scanner_skips_earlier_relations(self, tourist_db, block_size):
        skip = earlier_relations(tourist_db, "Accommodations")
        scanner = make_scanner(tourist_db, block_size, skip)
        labels = [t.label for t in scanner.scan()]
        assert "c1" not in labels and "a1" in labels
        assert scanner.passes == 1
        assert scanner.tuple_reads == 7
        assert scanner.database is tourist_db
        assert scanner.cost_summary()["passes"] == 1
        if block_size is not None:
            # Accommodations: 3 tuples -> 2 blocks; Sites: 4 -> 2.
            assert scanner.block_reads == 4


class TestStrategiesProduceTheSameFullDisjunction:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_on_chain_workload(self, strategy):
        database = chain_database(relations=3, tuples_per_relation=6, domain_size=3, seed=5)
        expected = labels_of(naive_full_disjunction(database))
        produced = full_disjunction(database, initialization=strategy)
        assert labels_of(produced) == expected
        assert len(produced) == len(expected)  # no duplicates either

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_on_cyclic_workload(self, strategy):
        database = cycle_database(relations=3, tuples_per_relation=5, domain_size=2, seed=7)
        expected = labels_of(naive_full_disjunction(database))
        produced = full_disjunction(database, initialization=strategy)
        assert labels_of(produced) == expected
        assert len(produced) == len(expected)
