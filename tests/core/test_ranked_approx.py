"""Tests for ranked retrieval of approximate full disjunctions (end of Section 6).

Ranked approximate retrieval is ``priority_incremental_fd`` (or ``top_k``)
under ``semantics=ApproxSemantics(A, τ)``; its queue seeds are
``enumerate_connected_subsets`` under the same semantics.
"""

import pytest

from repro.core.approx import ApproxSemantics, approx_full_disjunction
from repro.core.approx_join import EditDistanceSimilarity, ExactJoin, MinJoin
from repro.core.full_disjunction import full_disjunction
from repro.core.priority import priority_incremental_fd, top_k
from repro.core.ranking import MaxRanking, SumRanking, enumerate_connected_subsets
from repro.relational.errors import RankingError
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.tourist import (
    noisy_tourist_database,
    noisy_tourist_similarity,
    tourist_database,
    tourist_importance,
)

from tests.conftest import labels_of


@pytest.fixture
def noisy():
    return noisy_tourist_database()


@pytest.fixture
def amin():
    return MinJoin(noisy_tourist_similarity())


@pytest.fixture
def ranking():
    return MaxRanking(tourist_importance())


class TestEnumerateQualifyingSubsets:
    def test_singletons_below_threshold_are_excluded(self, noisy, amin):
        subsets = list(
            enumerate_connected_subsets(
                noisy, "Sites", 1, noisy.catalog(), semantics=ApproxSemantics(amin, threshold=0.7)
            )
        )
        labels = {next(iter(ts)).label for ts in subsets}
        assert "s2" not in labels  # prob(s2) = 0.6
        assert "s1" in labels

    def test_all_enumerated_sets_qualify(self, noisy, amin):
        for ts in enumerate_connected_subsets(
            noisy, "Climates", 2, noisy.catalog(), semantics=ApproxSemantics(amin, 0.5)
        ):
            assert amin(ts) >= 0.5
            assert len(ts) <= 2
            assert ts.contains_tuple_from("Climates")

    def test_respects_size_bound(self, noisy, amin):
        subsets = list(
            enumerate_connected_subsets(
                noisy, "Climates", 3, noisy.catalog(), semantics=ApproxSemantics(amin, 0.4)
            )
        )
        assert max(len(ts) for ts in subsets) <= 3


class TestRankedApproxFullDisjunction:
    def test_produces_afd_in_rank_order(self, noisy, amin, ranking):
        ranked = list(
            priority_incremental_fd(noisy, ranking, semantics=ApproxSemantics(amin, 0.4))
        )
        expected = labels_of(approx_full_disjunction(noisy, amin, 0.4))
        assert labels_of(ts for ts, _ in ranked) == expected
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_scores_match_the_ranking_function(self, noisy, amin, ranking):
        for tuple_set, score in priority_incremental_fd(
            noisy, ranking, semantics=ApproxSemantics(amin, 0.4)
        ):
            assert score == ranking(tuple_set)

    def test_top_k_prefix_matches_the_full_ranked_run(self, noisy, amin, ranking):
        everything = list(
            priority_incremental_fd(noisy, ranking, semantics=ApproxSemantics(amin, 0.4))
        )
        top = top_k(noisy, ranking, 3, semantics=ApproxSemantics(amin, 0.4))
        assert [score for _, score in top] == [score for _, score in everything[:3]]

    def test_k_zero_and_negative(self, noisy, amin, ranking):
        assert top_k(noisy, ranking, 0, semantics=ApproxSemantics(amin, 0.4)) == []
        with pytest.raises(ValueError):
            list(
                priority_incremental_fd(
                    noisy, ranking, k=-1, semantics=ApproxSemantics(amin, 0.4)
                )
            )

    def test_invalid_threshold_rejected(self, noisy, amin, ranking):
        with pytest.raises(ValueError):
            list(
                priority_incremental_fd(noisy, ranking, semantics=ApproxSemantics(amin, 1.5))
            )

    def test_non_c_determined_ranking_rejected(self, noisy, amin):
        with pytest.raises(RankingError):
            list(
                priority_incremental_fd(
                    noisy, SumRanking(), semantics=ApproxSemantics(amin, 0.4)
                )
            )

    def test_rank_threshold_variant(self, noisy, amin, ranking):
        everything = list(
            priority_incremental_fd(noisy, ranking, semantics=ApproxSemantics(amin, 0.4))
        )
        cutoff = 3.0
        expected = {ts.labels() for ts, score in everything if score >= cutoff}
        got = list(
            priority_incremental_fd(
                noisy, ranking, threshold=cutoff, semantics=ApproxSemantics(amin, 0.4)
            )
        )
        assert {ts.labels() for ts, _ in got} == expected

    def test_with_exact_join_reduces_to_priority_incremental_fd(self, ranking):
        database = tourist_database()
        via_exact = [
            (ts.labels(), score)
            for ts, score in priority_incremental_fd(database, ranking)
        ]
        via_approx = [
            (ts.labels(), score)
            for ts, score in priority_incremental_fd(
                database, ranking, semantics=ApproxSemantics(ExactJoin(), 1.0)
            )
        ]
        assert {entry[0] for entry in via_exact} == {entry[0] for entry in via_approx}
        assert [entry[1] for entry in via_exact] == [entry[1] for entry in via_approx]

    def test_use_index_does_not_change_results(self, noisy, amin, ranking):
        plain = labels_of(
            ts
            for ts, _ in priority_incremental_fd(
                noisy, ranking, semantics=ApproxSemantics(amin, 0.4)
            )
        )
        indexed = labels_of(
            ts
            for ts, _ in priority_incremental_fd(
                noisy, ranking, use_index=True, semantics=ApproxSemantics(amin, 0.4)
            )
        )
        assert plain == indexed

    def test_on_dirty_workload(self):
        database = dirty_sources_database(
            entities=8, sources=2, coverage=1.0, typo_rate=0.4, null_rate=0.0, seed=9,
            source_reliability=[1.0, 1.0],
        )
        amin = MinJoin(EditDistanceSimilarity())
        ranking = MaxRanking(lambda t: float(len(t.label)))
        ranked = list(
            priority_incremental_fd(database, ranking, semantics=ApproxSemantics(amin, 0.7))
        )
        assert labels_of(ts for ts, _ in ranked) == labels_of(
            approx_full_disjunction(database, amin, 0.7)
        )
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
