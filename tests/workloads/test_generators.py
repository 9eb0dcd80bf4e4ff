"""Tests for the synthetic workload generators."""

import pytest

from repro.baselines.acyclicity import is_gamma_acyclic
from repro.relational.nulls import is_null
from repro.workloads.generators import (
    chain_database,
    cycle_database,
    random_database,
    skewed_chain_database,
    star_database,
)


class TestChainDatabase:
    def test_shape(self):
        database = chain_database(relations=4, tuples_per_relation=7, seed=0)
        assert len(database) == 4
        assert all(len(relation) == 7 for relation in database)
        assert database.relation("R2").attributes == ("A1", "A2", "P2")

    def test_neighbouring_relations_share_an_attribute(self):
        database = chain_database(relations=4, seed=0)
        assert database.are_connected("R1", "R2")
        assert database.are_connected("R2", "R3")
        assert not database.are_connected("R1", "R3")
        assert database.is_connected()

    def test_determinism(self):
        first = chain_database(relations=3, tuples_per_relation=5, seed=42)
        second = chain_database(relations=3, tuples_per_relation=5, seed=42)
        assert [t.values for t in first.tuples()] == [t.values for t in second.tuples()]

    def test_different_seeds_differ(self):
        first = chain_database(relations=3, tuples_per_relation=10, seed=1)
        second = chain_database(relations=3, tuples_per_relation=10, seed=2)
        assert [t.values for t in first.tuples()] != [t.values for t in second.tuples()]

    def test_null_rate_zero_produces_no_nulls(self):
        database = chain_database(relations=3, tuples_per_relation=10, null_rate=0.0, seed=0)
        assert all(relation.null_count() == 0 for relation in database)

    def test_null_rate_one_nullifies_join_attributes(self):
        database = chain_database(relations=3, tuples_per_relation=5, null_rate=1.0, seed=0)
        for t in database.tuples():
            assert is_null(t[t.schema.attributes[0]])

    def test_rejects_too_few_relations(self):
        with pytest.raises(ValueError):
            chain_database(relations=1)

    def test_is_gamma_acyclic(self):
        assert is_gamma_acyclic(chain_database(relations=4, seed=0))


class TestStarDatabase:
    def test_every_relation_shares_the_hub(self):
        database = star_database(spokes=4, seed=0)
        for first in database.relation_names:
            for second in database.relation_names:
                if first != second:
                    assert database.are_connected(first, second)

    def test_output_grows_exponentially_with_spokes(self):
        from repro.core.full_disjunction import full_disjunction

        small = star_database(spokes=2, tuples_per_relation=4, hub_domain=2, seed=0)
        large = star_database(spokes=4, tuples_per_relation=4, hub_domain=2, seed=0)
        assert len(full_disjunction(large)) > 2 * len(full_disjunction(small))

    def test_rejects_too_few_spokes(self):
        with pytest.raises(ValueError):
            star_database(spokes=1)


class TestSkewedChainDatabase:
    def test_hot_relation_carries_the_factor(self):
        database = skewed_chain_database(
            relations=4, tuples_per_relation=6, hot_relation=2, hot_factor=8, seed=0
        )
        assert len(database.relation("R2")) == 48
        for name in ("R1", "R3", "R4"):
            assert len(database.relation(name)) == 6

    def test_chain_connectivity_is_preserved(self):
        database = skewed_chain_database(relations=4, seed=0)
        assert database.are_connected("R1", "R2")
        assert database.are_connected("R2", "R3")
        assert not database.are_connected("R1", "R3")
        assert database.is_connected()

    def test_determinism(self):
        first = skewed_chain_database(tuples_per_relation=5, seed=3)
        second = skewed_chain_database(tuples_per_relation=5, seed=3)
        assert [t.values for t in first.tuples()] == [
            t.values for t in second.tuples()
        ]

    def test_hot_factor_one_is_a_plain_chain_shape(self):
        database = skewed_chain_database(
            relations=3, tuples_per_relation=4, hot_factor=1, seed=0
        )
        assert all(len(relation) == 4 for relation in database)

    def test_the_hot_relation_holds_the_most_join_partners(self):
        """The fixture's whole point: counted from the catalog's consistency
        rows, the hot relation's tuples together have more consistent
        partners in their neighbouring relations than any cold relation's."""
        database = skewed_chain_database(
            relations=3, tuples_per_relation=6, hot_relation=2, hot_factor=8, seed=1
        )
        catalog = database.catalog()
        partners = {}
        for relation in database.relations:
            rid = catalog.relation_id(relation.name)
            neighbours = catalog.tuples_in_relations(catalog.adjacency_mask(rid))
            partners[relation.name] = sum(
                bin(catalog.consistent_mask(catalog.id_of(t)) & neighbours).count("1")
                for t in relation
            )
        assert partners["R2"] > partners["R1"]
        assert partners["R2"] > partners["R3"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            skewed_chain_database(relations=1)
        with pytest.raises(ValueError):
            skewed_chain_database(hot_relation=9, relations=3)
        with pytest.raises(ValueError):
            skewed_chain_database(hot_factor=0)


class TestCycleDatabase:
    def test_cycle_connectivity(self):
        database = cycle_database(relations=4, seed=0)
        assert database.are_connected("C1", "C2")
        assert database.are_connected("C4", "C1")
        assert not database.are_connected("C1", "C3")

    def test_not_gamma_acyclic(self):
        assert not is_gamma_acyclic(cycle_database(relations=3, seed=0))

    def test_rejects_too_few_relations(self):
        with pytest.raises(ValueError):
            cycle_database(relations=2)


class TestRandomDatabase:
    def test_connected_by_default(self):
        for seed in range(5):
            assert random_database(seed=seed).is_connected()

    def test_shape_parameters_are_respected(self):
        database = random_database(relations=4, arity=2, tuples_per_relation=3, seed=1)
        assert len(database) == 4
        assert all(len(relation) == 3 for relation in database)
        assert all(len(relation.schema) <= 2 for relation in database)

    def test_determinism(self):
        first = random_database(seed=7)
        second = random_database(seed=7)
        assert [t.values for t in first.tuples()] == [t.values for t in second.tuples()]
