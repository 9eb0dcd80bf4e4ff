"""Tests for similarity functions and approximate join functions (Section 6)."""

import pytest

from repro.core.approx_join import (
    ApproximateJoinFunction,
    EditDistanceSimilarity,
    ExactJoin,
    ExactMatchSimilarity,
    MinJoin,
    ProductJoin,
    TableSimilarity,
    connected_pairs,
    levenshtein,
    string_similarity,
    tuple_probability,
)
from repro.core.tupleset import TupleSet
from repro.relational.errors import ApproximateJoinError
from repro.relational.nulls import NULL
from repro.relational.relation import Relation
from repro.relational.database import Database
from repro.workloads.tourist import noisy_tourist_database, noisy_tourist_similarity


def by_label(db, *labels):
    return TupleSet((db.tuple_by_label(label) for label in labels), db.catalog())


class TestLevenshteinAndStringSimilarity:
    def test_identical_strings(self):
        assert levenshtein("canada", "canada") == 0
        assert string_similarity("canada", "canada") == 1.0

    def test_single_edit(self):
        assert levenshtein("canada", "cannada") == 1
        assert levenshtein("kitten", "sitting") == 3

    def test_empty_strings(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert string_similarity("", "") == 1.0

    def test_similarity_is_normalised_and_symmetric(self):
        assert 0.0 <= string_similarity("canada", "cannada") <= 1.0
        assert string_similarity("a", "b") == 0.0
        assert string_similarity("abc", "abd") == pytest.approx(2 / 3)
        assert string_similarity("x", "xyz") == string_similarity("xyz", "x")


class TestSimilarityFunctions:
    def test_exact_match_similarity(self, tourist_db):
        sim = ExactMatchSimilarity()
        c1 = tourist_db.tuple_by_label("c1")
        a1 = tourist_db.tuple_by_label("a1")
        c2 = tourist_db.tuple_by_label("c2")
        assert sim(c1, a1) == 1.0
        assert sim(c2, a1) == 0.0

    def test_edit_distance_similarity_on_shared_keys(self, noisy_db):
        sim = EditDistanceSimilarity()
        c1 = noisy_db.tuple_by_label("c1")  # Cannada
        a1 = noisy_db.tuple_by_label("a1")  # Canada
        value = sim(c1, a1)
        assert 0.8 <= value < 1.0

    def test_edit_distance_similarity_null_gives_zero(self, tourist_db):
        sim = EditDistanceSimilarity()
        s2 = tourist_db.tuple_by_label("s2")  # City is null
        a1 = tourist_db.tuple_by_label("a1")
        assert sim(s2, a1) == 0.0

    def test_edit_distance_similarity_non_string_mismatch_is_zero(self):
        left = Relation.from_rows("L", ["K"], [[4]])
        right = Relation.from_rows("R", ["K"], [[5]])
        sim = EditDistanceSimilarity()
        assert sim(left.tuples[0], right.tuples[0]) == 0.0

    def test_edit_distance_similarity_without_shared_attributes(self):
        left = Relation.from_rows("L", ["A"], [["x"]])
        right = Relation.from_rows("R", ["B"], [["y"]])
        assert EditDistanceSimilarity()(left.tuples[0], right.tuples[0]) == 1.0

    def test_table_similarity_lookup_and_default(self, noisy_db):
        sim = noisy_tourist_similarity()
        c1 = noisy_db.tuple_by_label("c1")
        a2 = noisy_db.tuple_by_label("a2")
        s3 = noisy_db.tuple_by_label("s3")
        c2 = noisy_db.tuple_by_label("c2")
        assert sim(c1, a2) == 0.5          # explicit table entry
        assert sim(a2, c1) == 0.5          # symmetry
        assert sim(c2, s3) == 1.0          # default: exact match (join consistent)

    def test_table_similarity_constant_default(self, noisy_db):
        sim = TableSimilarity({}, default=0.25)
        assert sim(noisy_db.tuple_by_label("c1"), noisy_db.tuple_by_label("a1")) == 0.25

    def test_similarity_outside_unit_interval_is_rejected(self, tourist_db):
        class Broken(ExactMatchSimilarity):
            def compute(self, first, second):
                return 2.0

        with pytest.raises(ApproximateJoinError):
            Broken()(tourist_db.tuple_by_label("c1"), tourist_db.tuple_by_label("a1"))


class TestConnectedPairs:
    def test_pairs_follow_schema_connectivity(self, tourist_db):
        ts = by_label(tourist_db, "c1", "a2", "s1")
        pairs = {(a.label, b.label) for a, b in connected_pairs(ts)}
        assert pairs == {("a2", "c1"), ("a2", "s1"), ("c1", "s1")}

    def test_singleton_has_no_pairs(self, tourist_db):
        assert list(connected_pairs(by_label(tourist_db, "c1"))) == []


class TestMinJoin:
    @pytest.fixture
    def amin(self):
        return MinJoin(noisy_tourist_similarity())

    def test_empty_and_singleton(self, noisy_db, amin):
        assert amin(TupleSet.empty(noisy_db.catalog())) == 1.0
        assert amin(by_label(noisy_db, "s2")) == pytest.approx(0.6)  # prob(s2)

    def test_disconnected_set_scores_zero(self, noisy_db, amin):
        assert amin(by_label(noisy_db, "c1", "c2")) == 0.0

    def test_value_is_min_of_probs_and_sims(self, noisy_db, amin):
        assert amin(by_label(noisy_db, "c1", "a2", "s2")) == pytest.approx(0.5)
        assert amin(by_label(noisy_db, "c1", "s2")) == pytest.approx(0.6)

    def test_acceptability_spot_check(self, noisy_db, amin):
        sets = [
            by_label(noisy_db, "c1"),
            by_label(noisy_db, "c1", "a2"),
            by_label(noisy_db, "c1", "a2", "s2"),
            by_label(noisy_db, "c1", "c2"),
            by_label(noisy_db, "s1", "s2"),
        ]
        assert amin.check_acceptable_on(sets)

    def test_candidate_extension_below_probability_threshold_is_empty(self, noisy_db, amin):
        base = by_label(noisy_db, "c1", "a2")
        s2 = noisy_db.tuple_by_label("s2")   # prob 0.6
        assert amin.candidate_extensions(base, s2, 0.7) == []

    def test_candidate_extension_drops_dissimilar_members(self, noisy_db, amin):
        # A_min({c1, a1}) = 0.7 ≥ τ = 0.65; adding s1 forces a1 out because
        # sim(a1, s1) = 0 < τ while sim(c1, s1) = 0.9 keeps c1 in.
        base = by_label(noisy_db, "c1", "a1")
        s1 = noisy_db.tuple_by_label("s1")
        extensions = amin.candidate_extensions(base, s1, 0.65)
        assert [ts.labels() for ts in extensions] == [frozenset({"c1", "s1"})]
        assert amin(extensions[0]) >= 0.65


class TestProductJoin:
    @pytest.fixture
    def aprod(self):
        return ProductJoin(noisy_tourist_similarity())

    def test_empty_singleton_and_disconnected(self, noisy_db, aprod):
        assert aprod(TupleSet.empty(noisy_db.catalog())) == 1.0
        assert aprod(by_label(noisy_db, "c1")) == 1.0
        assert aprod(by_label(noisy_db, "c1", "c2")) == 0.0

    def test_value_is_product_over_connected_pairs(self, noisy_db, aprod):
        assert aprod(by_label(noisy_db, "c1", "a2", "s2")) == pytest.approx(0.8 * 0.8 * 0.5)

    def test_acceptability_spot_check(self, noisy_db, aprod):
        sets = [
            by_label(noisy_db, "c1"),
            by_label(noisy_db, "c1", "s2"),
            by_label(noisy_db, "c1", "a2", "s2"),
            by_label(noisy_db, "c2", "c3"),
        ]
        assert aprod.check_acceptable_on(sets)

    def test_generic_candidate_extensions_are_maximal_and_qualifying(self, noisy_db, aprod):
        base = by_label(noisy_db, "c1", "s1", "a2")
        s2 = noisy_db.tuple_by_label("s2")
        extensions = aprod.candidate_extensions(base, s2, 0.4)
        for ts in extensions:
            assert s2 in ts
            assert aprod(ts) >= 0.4
        # maximality: no extension is contained in another
        for first in extensions:
            for second in extensions:
                if first != second:
                    assert not first.issubset(second)


class TestExactJoinAdapter:
    def test_scores_are_indicator_of_jcc(self, tourist_db):
        exact = ExactJoin()
        assert exact(by_label(tourist_db, "c1", "a1")) == 1.0
        assert exact(by_label(tourist_db, "c2", "a1")) == 0.0
        assert exact(TupleSet.empty(tourist_db.catalog())) == 1.0

    def test_candidate_extensions_use_footnote_3(self, tourist_db):
        exact = ExactJoin()
        base = by_label(tourist_db, "c1", "a1")
        a2 = tourist_db.tuple_by_label("a2")
        assert [ts.labels() for ts in exact.candidate_extensions(base, a2, 1.0)] == [
            frozenset({"c1", "a2"})
        ]


class TestScoreValidation:
    def test_score_outside_unit_interval_raises(self, tourist_db):
        class Broken(ApproximateJoinFunction):
            def score(self, tuple_set):
                return 1.5

        with pytest.raises(ApproximateJoinError):
            Broken()(by_label(tourist_db, "c1"))

    def test_tuple_probability_helper(self, noisy_db):
        assert tuple_probability(noisy_db.tuple_by_label("s2")) == pytest.approx(0.6)
