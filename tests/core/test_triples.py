"""Tests for the paper's sorted triple-list representation of tuple sets."""

import pytest

from repro.core.triples import Triple, TripleList, merge_join_consistent, merge_triples
from repro.core.tupleset import TupleSet
from repro.relational.index import AttributePositions


def by_label(db, *labels):
    return TupleSet((db.tuple_by_label(label) for label in labels), db.catalog())


class TestSingletonConstruction:
    def test_triples_are_sorted_by_attribute(self, tourist_db):
        a1 = tourist_db.tuple_by_label("a1")
        triples = TripleList.from_singleton(a1)
        assert [t.attribute for t in triples] == ["City", "Country", "Hotel", "Stars"]
        assert all(t.relation == "Accommodations" for t in triples)

    def test_bucket_sort_with_positions_matches_plain_sort(self, tourist_db):
        positions = AttributePositions(tourist_db)
        for label in ("c1", "a1", "a3", "s2"):
            t = tourist_db.tuple_by_label(label)
            assert TripleList.from_singleton(t, positions) == TripleList.from_singleton(t)

    def test_values_are_preserved(self, tourist_db):
        c1 = tourist_db.tuple_by_label("c1")
        triples = TripleList.from_singleton(c1)
        assert Triple("Climates", "Climate", "diverse") in list(triples)
        assert Triple("Climates", "Country", "Canada") in list(triples)


class TestMerging:
    def test_merge_keeps_global_attribute_order(self, tourist_db):
        c1 = TripleList.from_singleton(tourist_db.tuple_by_label("c1"))
        a1 = TripleList.from_singleton(tourist_db.tuple_by_label("a1"))
        merged = merge_triples(c1, a1)
        attributes = [t.attribute for t in merged]
        assert attributes == sorted(attributes)

    def test_merge_orders_equal_attributes_by_relation(self, tourist_db):
        c1 = TripleList.from_singleton(tourist_db.tuple_by_label("c1"))
        a1 = TripleList.from_singleton(tourist_db.tuple_by_label("a1"))
        merged = merge_triples(c1, a1)
        country_entries = [t for t in merged if t.attribute == "Country"]
        assert [t.relation for t in country_entries] == ["Accommodations", "Climates"]

    def test_merge_with_self_is_idempotent(self, tourist_db):
        c1 = TripleList.from_singleton(tourist_db.tuple_by_label("c1"))
        assert merge_triples(c1, c1) == c1

    def test_from_tuple_set_equals_iterated_merge(self, tourist_db):
        ts = by_label(tourist_db, "c1", "a2", "s1")
        direct = TripleList.from_tuple_set(ts)
        assert len(direct) == 2 + 4 + 3
        assert direct.relations() != []


class TestMergeJoinConsistent:
    def test_agreement_on_shared_attribute(self, tourist_db):
        c1 = TripleList.from_singleton(tourist_db.tuple_by_label("c1"))
        a1 = TripleList.from_singleton(tourist_db.tuple_by_label("a1"))
        consistent, shares = merge_join_consistent(c1, a1)
        assert consistent and shares

    def test_disagreement_on_shared_attribute(self, tourist_db):
        c2 = TripleList.from_singleton(tourist_db.tuple_by_label("c2"))
        a1 = TripleList.from_singleton(tourist_db.tuple_by_label("a1"))
        consistent, shares = merge_join_consistent(c2, a1)
        assert not consistent and shares

    def test_null_shared_attribute_is_inconsistent(self, tourist_db):
        s2 = TripleList.from_singleton(tourist_db.tuple_by_label("s2"))
        a1 = TripleList.from_singleton(tourist_db.tuple_by_label("a1"))
        consistent, shares = merge_join_consistent(s2, a1)
        assert not consistent and shares

    def test_no_shared_attribute(self):
        first = TripleList([Triple("L", "A", "x")])
        second = TripleList([Triple("R", "B", "y")])
        consistent, shares = merge_join_consistent(first, second)
        assert consistent and not shares

    def test_agrees_with_tupleset_union_check_on_paper_pairs(self, tourist_db):
        pairs = [
            (("c1", "a2"), ("c1", "s1")),
            (("c1", "a1"), ("c1", "a2")),
            (("c1",), ("c2", "s3")),
            (("c1", "s2"), ("c1", "a2", "s1")),
        ]
        for first_labels, second_labels in pairs:
            first = by_label(tourist_db, *first_labels)
            second = by_label(tourist_db, *second_labels)
            consistent, shares = merge_join_consistent(
                TripleList.from_tuple_set(first), TripleList.from_tuple_set(second)
            )
            same_relation_conflict = any(
                first.tuple_from(name) is not None
                and second.tuple_from(name) is not None
                and first.tuple_from(name) != second.tuple_from(name)
                for name in first.relations | second.relations
            )
            expected = first.union(second).is_jcc
            # The triple-list check captures value-level consistency and
            # attribute sharing; the same-relation conflict is checked by the
            # caller in the paper's analysis.
            assert ((consistent and shares) and not same_relation_conflict) == expected
