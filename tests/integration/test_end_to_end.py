"""End-to-end integration scenarios combining several subsystems."""

from repro.core.approx import ApproximateFullDisjunction
from repro.core.approx_join import EditDistanceSimilarity, MinJoin
from repro.core.full_disjunction import FullDisjunction, full_disjunction
from repro.core.priority import top_k
from repro.core.ranking import MaxRanking
from repro.relational import csv_io
from repro.relational.operators import remove_subsumed
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_database, tourist_importance

from tests.conftest import labels_of


class TestCsvToFullDisjunctionPipeline:
    def test_load_compute_materialise_round_trip(self, tmp_path):
        database = tourist_database()
        csv_io.save_database(database, tmp_path / "sources")
        reloaded = csv_io.load_database(
            sorted((tmp_path / "sources").glob("*.csv"))
        )
        fd = FullDisjunction(reloaded)
        result_relation = fd.to_relation("TouristFD")
        assert len(result_relation) == 6
        # The materialised result, being a set of maximal padded rows, is
        # already subsumption-free.
        assert len(remove_subsumed(result_relation)) == 6
        saved = csv_io.save_relation(result_relation, tmp_path / "fd.csv")
        assert len(csv_io.load_relation(saved)) == 6


class TestRankedIntegrationScenario:
    def test_top_1_is_the_four_star_destination(self):
        database = tourist_database()
        ranking = MaxRanking(tourist_importance())
        (best, score), = top_k(database, ranking, 1)
        assert best.labels() == frozenset({"c1", "a1"})
        assert score == 4.0

    def test_ranked_streaming_needs_no_full_materialisation_on_star(self):
        database = star_database(spokes=4, tuples_per_relation=5, hub_domain=2, seed=2)
        ranking = MaxRanking(lambda t: float(len(t.label)))
        results = top_k(database, ranking, 3)
        assert len(results) == 3
        scores = [score for _, score in results]
        assert scores == sorted(scores, reverse=True)


class TestApproximateIntegrationScenario:
    def test_dirty_integration_recovers_more_links_than_exact(self):
        database = dirty_sources_database(
            entities=10, sources=3, coverage=1.0, typo_rate=0.4, null_rate=0.0, seed=1
        )
        exact_links = sum(len(ts) - 1 for ts in full_disjunction(database))
        afd = ApproximateFullDisjunction(
            database, MinJoin(EditDistanceSimilarity()), threshold=0.6
        )
        approx_links = sum(len(ts) - 1 for ts in afd.compute())
        assert approx_links >= exact_links

    def test_threshold_one_equals_exact_on_clean_data(self):
        # Fully reliable sources (prob = 1) and no typos: with τ = 1 the
        # approximate full disjunction degenerates to the exact one.
        database = dirty_sources_database(
            entities=8, sources=2, coverage=1.0, typo_rate=0.0, null_rate=0.0, seed=4,
            source_reliability=[1.0, 1.0],
        )
        afd = ApproximateFullDisjunction(
            database, MinJoin(EditDistanceSimilarity()), threshold=1.0
        )
        assert labels_of(afd.compute()) == labels_of(full_disjunction(database))


class TestScalabilitySmoke:
    def test_medium_chain_workload_completes(self):
        database = chain_database(relations=5, tuples_per_relation=15, domain_size=6, seed=0)
        results = full_disjunction(database)
        assert results
        for result in results[:20]:
            assert result.is_jcc

    def test_streaming_prefix_of_a_large_star(self):
        database = star_database(spokes=6, tuples_per_relation=6, hub_domain=2, seed=0)
        fd = FullDisjunction(database)
        prefix = fd.first(10)
        assert len(prefix) == 10
        assert all(ts.is_jcc for ts in prefix)
