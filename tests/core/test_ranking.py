"""Tests for ranking functions (Section 5)."""

import pytest

from repro.core.ranking import (
    CDeterminedRanking,
    MaxRanking,
    SumRanking,
    enumerate_connected_subsets,
    enumerate_connected_subsets_containing,
    importance_function,
    paper_example_ranking,
    top_k_by_exhaustive_ranking,
    validate_importance_spec,
)
from repro.core.full_disjunction import full_disjunction
from repro.core.tupleset import TupleSet
from repro.relational.errors import RankingError
from repro.workloads.tourist import tourist_importance


def by_label(db, *labels):
    return TupleSet((db.tuple_by_label(label) for label in labels), db.catalog())


class TestImportanceFunction:
    def test_none_uses_tuple_importance(self, tourist_db):
        relation = tourist_db.relation("Climates")
        imp = importance_function(None)
        assert imp(relation.tuple_by_label("c1")) == 0.0

    def test_dict_lookup(self, tourist_db):
        imp = importance_function({"c1": 2.5, "c2": 1.0})
        assert imp(tourist_db.tuple_by_label("c1")) == 2.5
        assert imp(tourist_db.tuple_by_label("c2")) == 1.0

    def test_missing_label_raises_without_default(self, tourist_db):
        """A typo'd importance map must error, not silently score 0."""
        imp = importance_function({"c1": 2.5})
        with pytest.raises(RankingError, match="c2"):
            imp(tourist_db.tuple_by_label("c2"))

    def test_explicit_default_opts_back_into_unlisted_labels(self, tourist_db):
        imp = importance_function({"c1": 2.5}, default=0.0)
        assert imp(tourist_db.tuple_by_label("c1")) == 2.5
        assert imp(tourist_db.tuple_by_label("c2")) == 0.0

    def test_callable_passthrough(self, tourist_db):
        imp = importance_function(lambda t: 7.0)
        assert imp(tourist_db.tuple_by_label("c3")) == 7.0

    def test_invalid_spec_raises(self):
        with pytest.raises(RankingError):
            importance_function(42)


class TestMaxRanking:
    def test_score_is_maximum_importance(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        assert ranking(by_label(tourist_db, "c1", "a1")) == 4.0
        assert ranking(by_label(tourist_db, "c2", "s3")) == 2.0

    def test_empty_set_scores_minus_infinity(self, tourist_db):
        assert MaxRanking({})(TupleSet.empty(tourist_db.catalog())) == float("-inf")

    def test_is_monotonically_1_determined(self):
        ranking = MaxRanking({})
        assert ranking.c == 1 and ranking.monotone
        assert ranking.is_monotonically_c_determined
        ranking.require_monotonically_c_determined()

    def test_monotone_under_inclusion(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        small = by_label(tourist_db, "c1")
        big = by_label(tourist_db, "c1", "a1")
        assert ranking(small) <= ranking(big)


class TestSumRanking:
    def test_score_is_sum(self, tourist_db):
        ranking = SumRanking(tourist_importance())
        assert ranking(by_label(tourist_db, "c1", "a2", "s1")) == 1.0 + 3.0 + 1.0

    def test_not_c_determined(self):
        ranking = SumRanking({})
        assert ranking.c is None
        assert not ranking.is_monotonically_c_determined
        with pytest.raises(RankingError):
            ranking.require_monotonically_c_determined()


class TestCDeterminedRanking:
    def test_rejects_non_positive_c(self):
        with pytest.raises(RankingError):
            CDeterminedRanking(0, lambda subset: 0.0)

    def test_scores_by_best_connected_subset(self, tourist_db):
        imp = importance_function(tourist_importance())
        pair_sum = CDeterminedRanking(2, lambda subset: sum(imp(t) for t in subset))
        # Best connected pair in {c1, a2, s1} is (a2, s1) or (c1, a2): 3 + 1 = 4.
        assert pair_sum(by_label(tourist_db, "c1", "a2", "s1")) == 4.0

    def test_monotone_under_inclusion(self, tourist_db):
        imp = importance_function(tourist_importance())
        pair_sum = CDeterminedRanking(2, lambda subset: sum(imp(t) for t in subset))
        small = by_label(tourist_db, "c1", "a2")
        big = by_label(tourist_db, "c1", "a2", "s1")
        assert pair_sum(small) <= pair_sum(big)

    def test_disconnected_subsets_are_not_scored(self, tourist_db):
        imp = importance_function(tourist_importance())
        # a1 and s3 are not connected through shared non-null attributes,
        # but schema-connectivity is what counts: Accommodations and Sites do
        # share attributes, so any pair of their tuples is "connected".
        pair_sum = CDeterminedRanking(2, lambda subset: sum(imp(t) for t in subset))
        assert pair_sum(by_label(tourist_db, "a1", "s3")) == 5.0

    def test_paper_example_ranking_is_3_determined(self, tourist_db):
        ranking = paper_example_ranking(tourist_importance())
        assert ranking.c == 3 and ranking.monotone
        # For {c1, a1}: best of imp(t1) + imp(t2)*imp(t3) over tuples {1, 4}
        # is 4 + 4*4 = 20.
        assert ranking(by_label(tourist_db, "c1", "a1")) == 20.0


class TestEnumerateConnectedSubsets:
    def test_size_one_enumerates_anchor_singletons(self, tourist_db):
        subsets = list(enumerate_connected_subsets(tourist_db, "Climates", 1, tourist_db.catalog()))
        assert {ts.labels() for ts in subsets} == {
            frozenset({"c1"}),
            frozenset({"c2"}),
            frozenset({"c3"}),
        }

    def test_size_two_contains_only_jcc_pairs_with_anchor(self, tourist_db):
        subsets = list(enumerate_connected_subsets(tourist_db, "Climates", 2, tourist_db.catalog()))
        assert frozenset({"c1", "a1"}) in {ts.labels() for ts in subsets}
        assert frozenset({"c2", "a1"}) not in {ts.labels() for ts in subsets}
        for ts in subsets:
            assert ts.is_jcc
            assert len(ts) <= 2
            assert ts.contains_tuple_from("Climates")

    def test_every_jcc_subset_up_to_size_c_is_enumerated(self, tourist_db):
        subsets = {ts.labels() for ts in enumerate_connected_subsets(tourist_db, "Climates", 3, tourist_db.catalog())}
        assert frozenset({"c1", "a2", "s1"}) in subsets
        assert frozenset({"c1", "s2"}) in subsets

    def test_invalid_size_raises(self, tourist_db):
        with pytest.raises(RankingError):
            list(enumerate_connected_subsets(tourist_db, "Climates", 0, tourist_db.catalog()))


class TestValidateImportanceSpec:
    def _full_map(self, tourist_db):
        return {t.label: 1.0 for t in tourist_db.tuples()}

    def test_complete_map_passes(self, tourist_db):
        validate_importance_spec(tourist_db, self._full_map(tourist_db))

    def test_typod_key_is_rejected_even_with_a_default(self, tourist_db):
        spec = self._full_map(tourist_db)
        spec["cl1"] = spec.pop("c1")  # the typo scores the intended tuple wrongly
        with pytest.raises(RankingError, match="cl1"):
            validate_importance_spec(tourist_db, spec)
        with pytest.raises(RankingError, match="cl1"):
            validate_importance_spec(tourist_db, spec, default=0.0)

    def test_missing_label_is_rejected_without_a_default(self, tourist_db):
        spec = self._full_map(tourist_db)
        del spec["s2"]
        with pytest.raises(RankingError, match="s2"):
            validate_importance_spec(tourist_db, spec)
        validate_importance_spec(tourist_db, spec, default=0.0)  # opt-out

    def test_non_dict_specs_always_pass(self, tourist_db):
        validate_importance_spec(tourist_db, None)
        validate_importance_spec(tourist_db, lambda t: 1.0)


class TestEnumerateConnectedSubsetsContaining:
    def test_matches_the_unbounded_enumeration_filtered_by_tuple(self, tourist_db):
        """The bounded variant is exactly 'subsets containing t' of Lines 3-4."""
        for anchor_name in tourist_db.relation_names:
            for size in (1, 2, 3):
                full = {
                    ts.labels()
                    for ts in enumerate_connected_subsets(tourist_db, anchor_name, size, tourist_db.catalog())
                }
                for t in tourist_db.relation(anchor_name):
                    bounded = {
                        ts.labels()
                        for ts in enumerate_connected_subsets_containing(
                            tourist_db, t, size, tourist_db.catalog()
                        )
                    }
                    assert bounded == {
                        labels for labels in full if t.label in labels
                    }

    def test_every_subset_contains_the_tuple_and_is_jcc(self, tourist_db):
        t = tourist_db.tuple_by_label("a2")
        subsets = list(enumerate_connected_subsets_containing(tourist_db, t, 3, tourist_db.catalog()))
        assert subsets, "a2 joins with climates and sites"
        for ts in subsets:
            assert t in ts
            assert ts.is_jcc
            assert len(ts) <= 3

    def test_size_one_is_the_singleton(self, tourist_db):
        t = tourist_db.tuple_by_label("c1")
        subsets = list(enumerate_connected_subsets_containing(tourist_db, t, 1, tourist_db.catalog()))
        assert [ts.labels() for ts in subsets] == [frozenset({"c1"})]

    def test_invalid_size_raises(self, tourist_db):
        t = tourist_db.tuple_by_label("c1")
        with pytest.raises(RankingError):
            list(enumerate_connected_subsets_containing(tourist_db, t, 0, tourist_db.catalog()))


class TestExhaustiveTopK:
    def test_matches_manual_sort(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        results = full_disjunction(tourist_db)
        top = top_k_by_exhaustive_ranking(results, ranking, 2)
        assert [ranking(ts) for ts in top] == [4.0, 3.0]

    def test_k_larger_than_result(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        results = full_disjunction(tourist_db)
        assert len(top_k_by_exhaustive_ranking(results, ranking, 99)) == 6
