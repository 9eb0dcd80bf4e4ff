"""Tests for the full-disjunction physical operators."""

import pytest

from repro.core.approx import approx_full_disjunction
from repro.core.approx_join import MinJoin
from repro.core.full_disjunction import full_disjunction
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking, SumRanking
from repro.engine import (
    ApproximateFullDisjunctionScan,
    FullDisjunctionScan,
    Limit,
    Project,
    RankedFullDisjunctionScan,
    Select,
    collect,
    explain,
)
from repro.relational.errors import RankingError
from repro.relational.nulls import is_null
from repro.workloads.generators import star_database
from repro.workloads.tourist import (
    TABLE2_TUPLE_SETS,
    noisy_tourist_database,
    noisy_tourist_similarity,
    tourist_importance,
)

from tests.conftest import labels_of


class TestFullDisjunctionScan:
    def test_produces_every_member_of_fd_as_padded_rows(self, tourist_db):
        rows = collect(FullDisjunctionScan(tourist_db))
        assert len(rows) == 6
        assert {row.provenance.labels() for row in rows} == set(TABLE2_TUPLE_SETS)
        by_labels = {row.provenance.labels(): row for row in rows}
        mount_logan = by_labels[frozenset({"c1", "s2"})]
        assert mount_logan["Site"] == "Mount Logan"
        assert is_null(mount_logan["Hotel"])

    def test_limit_only_does_the_necessary_work(self):
        database = star_database(spokes=5, tuples_per_relation=6, hub_domain=2, seed=1)
        scan = FullDisjunctionScan(database)
        plan = Limit(scan, 5)
        rows = collect(plan)
        assert len(rows) == 5
        assert all(row.provenance.is_jcc for row in rows)

    def test_select_on_padded_columns(self, tourist_db):
        plan = Select(
            FullDisjunctionScan(tourist_db), lambda row: row["Country"] == "UK"
        )
        rows = collect(plan)
        assert {row.provenance.labels() for row in rows} == {
            frozenset({"c2", "s3"}),
            frozenset({"c2", "s4"}),
        }

    def test_projection_keeps_provenance(self, tourist_db):
        plan = Project(FullDisjunctionScan(tourist_db), ["Country", "Site"])
        rows = collect(plan)
        assert all(row.attributes == ("Country", "Site") for row in rows)
        assert all(row.provenance is not None for row in rows)

    def test_execution_options_are_passed_through(self, tourist_db):
        rows = collect(
            FullDisjunctionScan(
                tourist_db,
                block_size=2,
            )
        )
        assert {row.provenance.labels() for row in rows} == set(TABLE2_TUPLE_SETS)

    def test_explain_names_the_relations(self, tourist_db):
        rendered = explain(Limit(FullDisjunctionScan(tourist_db), 1))
        assert "FullDisjunctionScan(Climates, Accommodations, Sites)" in rendered


class TestRankedFullDisjunctionScan:
    def test_rows_arrive_in_rank_order_with_score_column(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        rows = collect(RankedFullDisjunctionScan(tourist_db, ranking))
        scores = [row["_score"] for row in rows]
        assert scores == sorted(scores, reverse=True)
        expected = [score for _, score in priority_incremental_fd(tourist_db, ranking)]
        assert scores == expected

    def test_limit_gives_top_k(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        rows = collect(Limit(RankedFullDisjunctionScan(tourist_db, ranking), 2))
        assert [row["_score"] for row in rows] == [4.0, 3.0]
        assert rows[0].provenance.labels() == frozenset({"c1", "a1"})

    def test_threshold_is_honoured(self, tourist_db):
        ranking = MaxRanking(tourist_importance())
        rows = collect(RankedFullDisjunctionScan(tourist_db, ranking, threshold=3.0))
        assert all(row["_score"] >= 3.0 for row in rows)
        assert len(rows) == 3

    def test_rejects_non_c_determined_ranking(self, tourist_db):
        with pytest.raises(RankingError):
            RankedFullDisjunctionScan(tourist_db, SumRanking(tourist_importance()))


class TestApproximateFullDisjunctionScan:
    def test_unranked_scan_matches_afd(self):
        database = noisy_tourist_database()
        amin = MinJoin(noisy_tourist_similarity())
        rows = collect(ApproximateFullDisjunctionScan(database, amin, 0.4))
        assert labels_of(row.provenance for row in rows) == labels_of(
            approx_full_disjunction(database, amin, 0.4)
        )
        assert all(row["_score"] >= 0.4 for row in rows)

    def test_ranked_scan_orders_by_rank(self):
        database = noisy_tourist_database()
        amin = MinJoin(noisy_tourist_similarity())
        ranking = MaxRanking(tourist_importance())
        rows = collect(
            ApproximateFullDisjunctionScan(database, amin, 0.4, ranking=ranking)
        )
        scores = [row["_score"] for row in rows]
        assert scores == sorted(scores, reverse=True)
        assert labels_of(row.provenance for row in rows) == labels_of(
            approx_full_disjunction(database, amin, 0.4)
        )

    def test_exact_fd_consistency(self, tourist_db):
        # With the exact-match similarity and τ = 1 the approximate scan
        # produces the ordinary full disjunction.
        from repro.core.approx_join import ExactMatchSimilarity

        rows = collect(
            ApproximateFullDisjunctionScan(
                tourist_db, MinJoin(ExactMatchSimilarity()), 1.0
            )
        )
        assert labels_of(row.provenance for row in rows) == labels_of(
            full_disjunction(tourist_db)
        )
