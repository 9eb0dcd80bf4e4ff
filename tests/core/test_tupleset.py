"""Tests for tuple sets and the JCC predicate."""

import pytest

from repro.core.tupleset import TupleSet
from repro.relational.relation import Relation
from repro.relational.database import Database


@pytest.fixture
def db(tourist_db):
    return tourist_db


def by_label(db, *labels):
    return TupleSet((db.tuple_by_label(label) for label in labels), db.catalog())


class TestConstructionAndContainerProtocol:
    def test_of_and_singleton_and_empty(self, db):
        c1 = db.tuple_by_label("c1")
        catalog = db.catalog()
        assert len(TupleSet.of(c1, catalog=catalog)) == 1
        assert len(TupleSet.singleton(c1, catalog)) == 1
        assert len(TupleSet.empty(catalog)) == 0

    def test_a_set_needs_a_catalog_that_describes_its_members(self, db):
        c1 = db.tuple_by_label("c1")
        with pytest.raises(TypeError):
            TupleSet([c1])
        with pytest.raises(TypeError):
            TupleSet([c1], None)
        stranger = Relation.from_rows("Climates", ["Country", "Climate"], [["Peru", "dry"]])
        with pytest.raises(ValueError, match="not in the catalog"):
            TupleSet([c1, stranger.tuples[0]], db.catalog())
        with pytest.raises(ValueError, match="not in the catalog"):
            by_label(db, "c1").can_absorb(stranger.tuples[0])

    def test_operands_of_two_catalogs_are_refused_but_compare_by_value(self, db):
        mine = by_label(db, "c1")
        other_db = Database([Relation.from_rows("Climates", ["Country", "Climate"], [])])
        other_db.add_tuple("Climates", ["Canada", "diverse"], label="c1")
        theirs = TupleSet(other_db.tuples(), other_db.catalog())
        assert mine == theirs and hash(mine) == hash(theirs) and mine.issubset(theirs)
        with pytest.raises(ValueError, match="two catalogs"):
            mine.union(theirs)
        with pytest.raises(ValueError, match="two catalogs"):
            mine.union_is_jcc(theirs)

    def test_membership_iteration_and_len(self, db):
        ts = by_label(db, "c1", "a1")
        assert db.tuple_by_label("c1") in ts
        assert db.tuple_by_label("c2") not in ts
        assert len(ts) == 2
        assert {t.label for t in ts} == {"c1", "a1"}

    def test_equality_and_hash_ignore_order(self, db):
        first = by_label(db, "c1", "a1")
        second = by_label(db, "a1", "c1")
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_subset_superset(self, db):
        small = by_label(db, "c1")
        big = by_label(db, "c1", "a1")
        assert small.issubset(big) and big.issuperset(small)
        assert small <= big and small < big
        assert not big.issubset(small)

    def test_labels_and_sort_key_and_repr(self, db):
        ts = by_label(db, "c1", "a1")
        assert ts.labels() == frozenset({"c1", "a1"})
        assert ts.sort_key() == (("Accommodations", "a1"), ("Climates", "c1"))
        assert repr(ts) == "{a1, c1}"

    def test_total_size_counts_attribute_cells(self, db):
        ts = by_label(db, "c1", "a1")  # 2 + 4 attributes
        assert ts.total_size() == 6


class TestRelationAndAttributeViews:
    def test_relations_and_tuple_from(self, db):
        ts = by_label(db, "c1", "a1")
        assert ts.relations == {"Climates", "Accommodations"}
        assert ts.tuple_from("Climates").label == "c1"
        assert ts.tuple_from("Sites") is None
        assert ts.contains_tuple_from("Accommodations")
        assert not ts.contains_tuple_from("Sites")


class TestJCCPredicate:
    def test_empty_and_singletons_are_jcc(self, db):
        assert TupleSet.empty(db.catalog()).is_jcc
        assert by_label(db, "c1").is_jcc

    def test_paper_results_are_jcc(self, db):
        for labels in (("c1", "a1"), ("c1", "a2", "s1"), ("c1", "s2"), ("c2", "s3")):
            assert by_label(db, *labels).is_jcc

    def test_conflicting_shared_value_is_not_join_consistent(self, db):
        ts = by_label(db, "c2", "a1")  # UK vs Canada on Country
        assert not ts.is_join_consistent
        assert not ts.is_jcc

    def test_null_shared_value_is_not_join_consistent(self, db):
        ts = by_label(db, "a1", "s2")  # s2.City is null, a1.City = Toronto
        assert not ts.is_join_consistent

    def test_two_tuples_of_same_relation_are_not_connected(self, db):
        ts = by_label(db, "c1", "c2")
        assert not ts.is_connected
        assert not ts.is_jcc

    def test_disconnected_relations_are_not_connected(self):
        left = Relation.from_rows("L", ["A"], [["x"]])
        right = Relation.from_rows("R", ["B"], [["x"]])
        db = Database([left, right])
        ts = TupleSet(db.tuples(), db.catalog())
        assert not ts.is_connected

    def test_connectivity_may_go_through_intermediate_relation(self):
        # L(A) - M(A,B) - R(B): {l, r} alone is disconnected, {l, m, r} is not.
        left = Relation.from_rows("L", ["A"], [["x"]])
        middle = Relation.from_rows("M", ["A", "B"], [["x", "y"]])
        right = Relation.from_rows("R", ["B"], [["y"]])
        db = Database([left, middle, right])
        l1, m1, r1 = list(db.tuples())
        assert not TupleSet.of(l1, r1, catalog=db.catalog()).is_connected
        assert TupleSet.of(l1, m1, r1, catalog=db.catalog()).is_jcc


class TestDerivedSets:
    def test_with_tuple_and_union_and_difference(self, db):
        base = by_label(db, "c1")
        grown = base.with_tuple(db.tuple_by_label("a1"))
        assert grown.labels() == {"c1", "a1"}
        assert base.labels() == {"c1"}  # immutability
        assert grown.with_tuple(db.tuple_by_label("a1")) is grown
        union = base.union(by_label(db, "s2"))
        assert union.labels() == {"c1", "s2"}
        assert grown.difference(base).labels() == {"a1"}


class TestCanAbsorb:
    def test_absorbs_consistent_connected_tuple(self, db):
        assert by_label(db, "c1").can_absorb(db.tuple_by_label("a1"))

    def test_rejects_same_relation_tuple(self, db):
        assert not by_label(db, "c1").can_absorb(db.tuple_by_label("c2"))

    def test_rejects_inconsistent_tuple(self, db):
        assert not by_label(db, "c1", "a1").can_absorb(db.tuple_by_label("s1"))

    def test_rejects_unconnected_tuple(self):
        left = Relation.from_rows("L", ["A"], [["x"]])
        right = Relation.from_rows("R", ["B"], [["y"]])
        db = Database([left, right])
        l1, r1 = list(db.tuples())
        assert not TupleSet.singleton(l1, db.catalog()).can_absorb(r1)

    def test_member_tuple_is_trivially_absorbable(self, db):
        ts = by_label(db, "c1")
        assert ts.can_absorb(db.tuple_by_label("c1"))

    def test_empty_set_absorbs_anything(self, db):
        assert TupleSet.empty(db.catalog()).can_absorb(db.tuple_by_label("a3"))

    def test_null_shared_attribute_blocks_absorption(self, db):
        # s2 has a null City; a1 provides City=Toronto: the pair is inconsistent.
        assert not by_label(db, "c1", "s2").can_absorb(db.tuple_by_label("a1"))


class TestUnionIsJcc:
    def test_union_of_overlapping_results(self, db):
        first = by_label(db, "c1", "a2")
        second = by_label(db, "c1", "s1")
        assert first.union_is_jcc(second)
        assert second.union_is_jcc(first)

    def test_union_with_conflicting_relation_tuples(self, db):
        first = by_label(db, "c1", "a1")
        second = by_label(db, "c1", "a2")
        assert not first.union_is_jcc(second)

    def test_union_with_value_conflict(self, db):
        first = by_label(db, "c1")
        second = by_label(db, "c2", "s3")
        assert not first.union_is_jcc(second)

    def test_union_without_shared_attributes_is_rejected(self):
        left = Relation.from_rows("L", ["A"], [["x"]])
        right = Relation.from_rows("R", ["B"], [["y"]])
        db = Database([left, right])
        l1, r1 = list(db.tuples())
        catalog = db.catalog()
        assert not TupleSet.singleton(l1, catalog).union_is_jcc(TupleSet.singleton(r1, catalog))

    def test_union_with_empty_set(self, db):
        ts = by_label(db, "c1", "a1")
        assert ts.union_is_jcc(TupleSet.empty(db.catalog()))
        assert TupleSet.empty(db.catalog()).union_is_jcc(ts)

    def test_union_matches_direct_jcc_computation(self, db):
        sets = [
            by_label(db, "c1", "a2"),
            by_label(db, "c1", "s1"),
            by_label(db, "c1", "s2"),
            by_label(db, "c2", "s3"),
            by_label(db, "c3"),
        ]
        for first in sets:
            for second in sets:
                expected = first.union(second).is_jcc
                assert first.union_is_jcc(second) == expected


class TestMaximalJccSubsetWith:
    """Footnote 3: the unique maximal JCC subset of ``T ∪ {t_b}`` containing ``t_b``."""

    def test_drops_inconsistent_and_same_relation_tuples(self, db):
        base = by_label(db, "c1", "a1")
        candidate = db.tuple_by_label("a2")
        result = base.maximal_jcc_subset_with(candidate)
        assert result.labels() == {"c1", "a2"}

    def test_result_can_be_a_singleton(self, db):
        base = by_label(db, "c1", "a1")
        result = base.maximal_jcc_subset_with(db.tuple_by_label("a3"))
        assert result.labels() == {"a3"}

    def test_keeps_only_connected_component_of_candidate(self):
        # L(A) - M(A,B) - R(B); drop M and L must go too when extending with
        # an R-tuple that is inconsistent with M.
        left = Relation.from_rows("L", ["A"], [["x"]])
        middle = Relation.from_rows("M", ["A", "B"], [["x", "y"]])
        right = Relation.from_rows("R", ["B"], [["y"], ["z"]])
        db = Database([left, middle, right])
        l1 = left.tuples[0]
        m1 = middle.tuples[0]
        r_z = right.tuples[1]  # B = z, inconsistent with m1 (B = y)
        base = TupleSet.of(l1, m1, catalog=db.catalog())
        result = base.maximal_jcc_subset_with(r_z)
        assert result.labels() == {r_z.label}

    def test_result_is_always_jcc_and_contains_candidate(self, db):
        base = by_label(db, "c1", "a2", "s1")
        for label in ("a1", "a3", "s2", "s3", "c2"):
            candidate = db.tuple_by_label(label)
            result = base.maximal_jcc_subset_with(candidate)
            assert candidate in result
            assert result.is_jcc

    def test_result_is_maximal(self, db):
        base = by_label(db, "c1", "a2", "s1")
        candidate = db.tuple_by_label("s2")
        result = base.maximal_jcc_subset_with(candidate)
        # No dropped tuple could be added back.
        for t in base:
            if t not in result:
                assert not result.can_absorb(t)
