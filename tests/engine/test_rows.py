"""Tests for execution-engine rows."""

from repro.core.tupleset import TupleSet
from repro.engine.rows import Row
from repro.relational.nulls import NULL, is_null


class TestRow:
    def test_missing_attributes_read_as_null(self):
        row = Row({"A": 1})
        assert row["A"] == 1
        assert is_null(row["B"])
        assert row.get("B", "x") == "x"
        assert row.is_null("B") and not row.is_null("A")

    def test_none_values_become_null(self):
        row = Row({"A": None})
        assert row["A"] is NULL

    def test_values_returns_a_copy(self):
        row = Row({"A": 1})
        values = row.values
        values["A"] = 99
        assert row["A"] == 1

    def test_project_keeps_provenance(self, tourist_db):
        provenance = TupleSet.singleton(tourist_db.tuple_by_label("c1"), tourist_db.catalog())
        row = Row({"A": 1, "B": 2}, provenance=provenance)
        projected = row.project(["B", "C"])
        assert projected.attributes == ("B", "C")
        assert projected["B"] == 2 and projected.is_null("C")
        assert projected.provenance == provenance

    def test_equality_and_hash(self):
        assert Row({"A": 1}) == Row({"A": 1})
        assert Row({"A": 1}) != Row({"A": 2})
        assert len({Row({"A": 1}), Row({"A": 1})}) == 1

    def test_repr_mentions_provenance(self, tourist_db):
        provenance = TupleSet.singleton(tourist_db.tuple_by_label("c1"), tourist_db.catalog())
        assert "c1" in repr(Row({"A": 1}, provenance=provenance))
        assert "from" not in repr(Row({"A": 1}))
