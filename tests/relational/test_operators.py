"""Tests for the relational operators (join, outerjoin, subsumption, padding)."""

import pytest

from repro.relational import operators
from repro.relational.errors import RelationError
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.tupleset import TupleSet
from repro.workloads.tourist import tourist_database


def rows_of(relation):
    """Set-of-rows view for order-insensitive comparisons."""
    return {t.values for t in relation}


@pytest.fixture
def left():
    return Relation.from_rows("L", ["K", "A"], [["k1", "a1"], ["k2", "a2"], [NULL, "a3"]])


@pytest.fixture
def right():
    return Relation.from_rows("R", ["K", "B"], [["k1", "b1"], ["k1", "b1b"], ["k3", "b3"]])


class TestSelectProjectDistinctUnion:
    def test_select(self, left):
        chosen = operators.select(left, lambda t: t["A"] == "a2")
        assert rows_of(chosen) == {("k2", "a2")}

    def test_project(self, left):
        projected = operators.project(left, ["A"])
        assert projected.attributes == ("A",)
        assert rows_of(projected) == {("a1",), ("a2",), ("a3",)}

    def test_distinct(self):
        relation = Relation.from_rows("D", ["A"], [["x"], ["x"], ["y"]])
        assert len(operators.distinct(relation)) == 2

    def test_union_requires_same_schema(self, left, right):
        with pytest.raises(RelationError):
            operators.union(left, right)

    def test_union_removes_duplicates(self):
        first = Relation.from_rows("U1", ["A"], [["x"], ["y"]])
        second = Relation.from_rows("U2", ["A"], [["y"], ["z"]])
        assert rows_of(operators.union(first, second)) == {("x",), ("y",), ("z",)}


class TestNaturalJoin:
    def test_matching_rows_combine(self, left, right):
        joined = operators.natural_join(left, right)
        assert joined.attributes == ("K", "A", "B")
        assert ("k1", "a1", "b1") in rows_of(joined)
        assert ("k1", "a1", "b1b") in rows_of(joined)

    def test_nulls_never_join(self, left, right):
        joined = operators.natural_join(left, right)
        assert all(not is_null(row[0]) for row in rows_of(joined))

    def test_unmatched_rows_are_dropped(self, left, right):
        joined = operators.natural_join(left, right)
        assert all(row[0] == "k1" for row in rows_of(joined))

    def test_join_without_shared_attributes_is_empty(self):
        first = Relation.from_rows("F", ["A"], [["x"]])
        second = Relation.from_rows("G", ["B"], [["y"]])
        # No shared attribute: _rows_join_consistent is vacuously true, so the
        # natural join degenerates to a cross product — the classic semantics.
        joined = operators.natural_join(first, second)
        assert rows_of(joined) == {("x", "y")}


class TestOuterjoins:
    def test_left_outerjoin_preserves_left(self, left, right):
        joined = operators.left_outerjoin(left, right)
        padded = [row for row in rows_of(joined) if is_null(row[2])]
        # k2 and the null-key row are unmatched, hence padded.
        assert len(padded) == 2
        assert len(joined) == 4  # 2 matches for k1 + 2 padded

    def test_full_outerjoin_preserves_both_sides(self, left, right):
        joined = operators.full_outerjoin(left, right)
        values = rows_of(joined)
        assert ("k2", "a2", NULL) in values
        assert ("k3", NULL, "b3") in values
        assert ("k1", "a1", "b1") in values
        # every source tuple appears in some result row
        assert len(joined) == 2 + 2 + 1  # two k1 matches, two padded left, one padded right

    def test_full_outerjoin_schema_is_union(self, left, right):
        joined = operators.full_outerjoin(left, right)
        assert joined.attributes == ("K", "A", "B")


class TestSubsumption:
    def test_row_subsumes(self):
        assert operators.row_subsumes(("a", "b"), ("a", NULL))
        assert operators.row_subsumes(("a", "b"), ("a", "b"))
        assert not operators.row_subsumes(("a", NULL), ("a", "b"))
        assert not operators.row_subsumes(("x", "b"), ("a", "b"))

    def test_row_subsumes_requires_same_length(self):
        with pytest.raises(RelationError):
            operators.row_subsumes(("a",), ("a", "b"))

    def test_remove_subsumed(self):
        relation = Relation.from_rows(
            "S",
            ["A", "B"],
            [["a", "b"], ["a", NULL], ["c", NULL], ["a", "b"]],
        )
        cleaned = operators.remove_subsumed(relation)
        assert rows_of(cleaned) == {("a", "b"), ("c", NULL)}
        assert len(cleaned) == 2  # the duplicate ("a","b") is kept once


class TestPadding:
    def test_combined_schema_order(self, left, right):
        schema = operators.combined_schema([left, right])
        assert schema.attributes == ("K", "A", "B")

    def test_pad_tuple_set_reproduces_table2_row(self):
        database = tourist_database()
        c1 = database.tuple_by_label("c1")
        s2 = database.tuple_by_label("s2")
        schema = operators.combined_schema(database.relations)
        row = operators.pad_tuple_set(TupleSet.of(c1, s2, catalog=database.catalog()), schema)
        assert row["Country"] == "Canada"
        assert row["Climate"] == "diverse"
        assert row["Site"] == "Mount Logan"
        assert is_null(row["City"]) and is_null(row["Hotel"]) and is_null(row["Stars"])

    def test_pad_empty_tuple_set_is_all_null(self):
        schema = Schema(["A", "B"])
        row = operators.pad_tuple_set([], schema)
        assert all(is_null(v) for v in row.values())
