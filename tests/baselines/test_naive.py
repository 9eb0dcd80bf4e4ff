"""Tests for the brute-force oracle."""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.naive import (
    all_approx_tuple_sets,
    all_jcc_tuple_sets,
    naive_approx_full_disjunction,
    naive_full_disjunction,
)
from repro.core.approx_join import MinJoin
from repro.core.full_disjunction import full_disjunction
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import (
    TABLE2_TUPLE_SETS,
    noisy_tourist_similarity,
    tourist_database,
)

from tests.conftest import labels_of, small_databases


class TestAllJccTupleSets:
    def test_every_enumerated_set_is_jcc(self, tourist_db):
        for ts in all_jcc_tuple_sets(tourist_db):
            assert ts.is_jcc

    def test_contains_singletons_and_paper_results(self, tourist_db):
        enumerated = labels_of(all_jcc_tuple_sets(tourist_db))
        assert frozenset({"c1"}) in enumerated
        assert frozenset({"a3"}) in enumerated
        for result in TABLE2_TUPLE_SETS:
            assert result in enumerated

    def test_does_not_contain_inconsistent_sets(self, tourist_db):
        enumerated = labels_of(all_jcc_tuple_sets(tourist_db))
        assert frozenset({"c2", "a1"}) not in enumerated
        assert frozenset({"c1", "c2"}) not in enumerated

    def test_definition_property_every_jcc_set_is_under_some_result(self, tourist_db):
        """Definition 2.1(iii) verified against the oracle's own enumeration."""
        results = naive_full_disjunction(tourist_db)
        for candidate in all_jcc_tuple_sets(tourist_db):
            assert any(candidate.issubset(result) for result in results)


class TestNaiveFullDisjunction:
    def test_reproduces_table2(self, tourist_db):
        assert labels_of(naive_full_disjunction(tourist_db)) == set(TABLE2_TUPLE_SETS)

    def test_no_redundancy(self, tourist_db):
        """Definition 2.1(i): no result is contained in another."""
        results = naive_full_disjunction(tourist_db)
        for first in results:
            for second in results:
                if first != second:
                    assert not first.issubset(second)


class TestNaiveApproximateOracle:
    def test_enumerated_sets_qualify(self, noisy_db):
        amin = MinJoin(noisy_tourist_similarity())
        for ts in all_approx_tuple_sets(noisy_db, amin, 0.5):
            assert amin(ts) >= 0.5
            assert ts.is_connected

    def test_maximality_of_approx_results(self, noisy_db):
        amin = MinJoin(noisy_tourist_similarity())
        results = naive_approx_full_disjunction(noisy_db, amin, 0.5)
        for first in results:
            for second in results:
                if first != second:
                    assert not first.issubset(second)


#: The ``TupleSet`` members the engine decides JCC and subsumption with.
ENGINE_PREDICATES = ("can_absorb", "union_is_jcc", "maximal_jcc_subset_with", "issubset", "is_jcc")


@contextmanager
def engine_predicates_refused():
    """Swap :data:`ENGINE_PREDICATES` for stubs that raise, and restore them.

    Sets the class attributes itself: ``@given`` tests refuse the
    function-scoped ``monkeypatch`` fixture.
    """
    originals = {name: vars(TupleSet)[name] for name in ENGINE_PREDICATES}

    def refused(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"the oracle asked TupleSet.{name}")

        return property(stub) if isinstance(originals[name], property) else stub

    for name in ENGINE_PREDICATES:
        setattr(TupleSet, name, refused(name))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(TupleSet, name, original)


def _oracle_matches_the_engine(database):
    engine = labels_of(full_disjunction(database))
    with engine_predicates_refused():
        oracle = labels_of(naive_full_disjunction(database))
    assert oracle == engine


class TestTheOracleSharesNoPredicateWithTheEngine:
    """``naive_full_disjunction`` decides JCC and maximality on its own: with
    the engine's tuple-set predicates refused, it still returns the
    engine's answers."""

    def test_the_stubs_refuse(self, tourist_db):
        members = TupleSet(tourist_db.tuples(), tourist_db.catalog())
        with engine_predicates_refused():
            with pytest.raises(AssertionError, match="the oracle asked"):
                members.is_jcc
            with pytest.raises(AssertionError, match="the oracle asked"):
                members.issubset(members)
        assert members.issubset(members)

    @pytest.mark.parametrize(
        "make",
        [
            tourist_database,
            lambda: star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=5),
            lambda: chain_database(
                relations=4, tuples_per_relation=4, domain_size=3, null_rate=0.15, seed=6
            ),
        ],
        ids=["tourist", "star", "chain"],
    )
    def test_on_the_fixed_workloads(self, make):
        _oracle_matches_the_engine(make())

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(database=small_databases())
    def test_on_drawn_databases(self, database):
        _oracle_matches_the_engine(database)
