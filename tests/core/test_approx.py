"""Tests for ``ApproxIncrementalFD`` and the approximate full disjunction.

``ApproxIncrementalFD(R, i, A, τ)`` is ``incremental_fd`` under
``semantics=ApproxSemantics(A, τ)``.
"""

import pytest

from repro.core.approx import (
    ApproximateFullDisjunction,
    ApproxSemantics,
    approx_full_disjunction,
)
from repro.core.approx_join import (
    EditDistanceSimilarity,
    ExactJoin,
    ExactMatchSimilarity,
    MinJoin,
    ProductJoin,
)
from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics, get_next_result, incremental_fd
from repro.baselines.naive import naive_approx_full_disjunction
from repro.workloads.dirty import dirty_sources_database
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import (
    noisy_tourist_database,
    noisy_tourist_similarity,
    tourist_database,
)

from tests.conftest import STORES, labels_of, on_store
from tests.core.reference_step import swapped_step


@pytest.fixture
def amin():
    return MinJoin(noisy_tourist_similarity())


class TestApproxIncrementalFD:
    def test_threshold_validation(self, noisy_db, amin):
        with pytest.raises(ValueError):
            list(incremental_fd(noisy_db, "Climates", semantics=ApproxSemantics(amin, 1.5)))

    def test_all_results_qualify_and_are_maximal(self, noisy_db, amin):
        tau = 0.4
        results = list(
            incremental_fd(noisy_db, "Climates", semantics=ApproxSemantics(amin, tau))
        )
        for result in results:
            assert amin(result) >= tau
            for t in noisy_db.tuples():
                if t not in result and t.relation_name not in result.relations:
                    grown = result.with_tuple(t)
                    if grown.is_connected:
                        assert amin(grown) < tau
        assert len(results) == len(set(results))

    def test_every_result_contains_an_anchor_tuple(self, noisy_db, amin):
        for result in incremental_fd(noisy_db, "Sites", semantics=ApproxSemantics(amin, 0.4)):
            assert result.contains_tuple_from("Sites")

    def test_low_probability_singletons_are_filtered_at_initialization(self, noisy_db, amin):
        # prob(s2) = 0.6: with τ = 0.7 no result may contain s2.
        results = list(
            incremental_fd(noisy_db, "Sites", semantics=ApproxSemantics(amin, 0.7))
        )
        assert all("s2" not in result.labels() for result in results)

    def test_statistics(self, noisy_db, amin):
        statistics = FDStatistics()
        results = list(
            incremental_fd(
                noisy_db,
                "Climates",
                statistics=statistics,
                semantics=ApproxSemantics(amin, 0.4),
            )
        )
        assert statistics.results == len(results) > 0


class TestApproxFullDisjunction:
    def test_matches_brute_force_oracle(self, noisy_db, amin):
        for tau in (0.3, 0.5, 0.65, 0.85):
            expected = labels_of(naive_approx_full_disjunction(noisy_db, amin, tau))
            produced = approx_full_disjunction(noisy_db, amin, tau)
            assert labels_of(produced) == expected, tau
            assert len(produced) == len(expected)

    def test_matches_oracle_with_product_join(self, noisy_db):
        aprod = ProductJoin(noisy_tourist_similarity())
        for tau in (0.35, 0.6):
            expected = labels_of(naive_approx_full_disjunction(noisy_db, aprod, tau))
            produced = approx_full_disjunction(noisy_db, aprod, tau)
            assert labels_of(produced) == expected, tau

    def test_exact_join_adapter_reduces_to_exact_fd(self, tourist_db):
        exact = labels_of(full_disjunction(tourist_db))
        via_approx = labels_of(approx_full_disjunction(tourist_db, ExactJoin(), 1.0))
        assert via_approx == exact

    def test_threshold_one_with_clean_similarity_matches_exact_fd(self, tourist_db):
        amin = MinJoin(EditDistanceSimilarity())
        # All probabilities are 1 and similarities are 1 exactly when the pair
        # is join consistent on non-null shared attributes, so τ = 1 recovers
        # the exact full disjunction.
        assert labels_of(approx_full_disjunction(tourist_db, amin, 1.0)) == labels_of(
            full_disjunction(tourist_db)
        )

    def test_lower_threshold_never_shrinks_coverage(self, noisy_db, amin):
        """Every exact/looser result is covered by some result at a lower τ."""
        strict = approx_full_disjunction(noisy_db, amin, 0.8)
        loose = approx_full_disjunction(noisy_db, amin, 0.5)
        for result in strict:
            assert any(result.issubset(other) for other in loose)

    def test_the_linear_lists_do_not_change_results(self, noisy_db, amin):
        with on_store("plain"):
            plain = labels_of(approx_full_disjunction(noisy_db, amin, 0.4))
        indexed = labels_of(approx_full_disjunction(noisy_db, amin, 0.4))
        assert plain == indexed

    def test_reconnects_misspelled_entities_on_dirty_workload(self):
        database = dirty_sources_database(entities=6, sources=2, coverage=1.0,
                                          typo_rate=0.5, null_rate=0.0, seed=3)
        amin = MinJoin(EditDistanceSimilarity())
        exact_pairs = sum(len(ts) > 1 for ts in full_disjunction(database))
        approx_pairs = sum(len(ts) > 1 for ts in approx_full_disjunction(database, amin, 0.6))
        assert approx_pairs >= exact_pairs
        assert approx_pairs > 0


class TestApproximateFullDisjunctionFacade:
    def test_compute_and_scores(self, noisy_db, amin):
        afd = ApproximateFullDisjunction(noisy_db, amin, 0.4)
        results = afd.compute()
        assert results == afd.compute()  # cached
        scores = afd.scores()
        assert set(scores) == set(results)
        assert all(value >= 0.4 for value in scores.values())
        assert afd.threshold == 0.4

    def test_iteration_streams(self, noisy_db, amin):
        afd = ApproximateFullDisjunction(noisy_db, amin, 0.4)
        assert labels_of(iter(afd)) == labels_of(afd.compute())

    def test_padded_rows_and_pretty(self, noisy_db, amin):
        afd = ApproximateFullDisjunction(noisy_db, amin, 0.4)
        rows = afd.padded_rows()
        assert len(rows) == len(afd.compute())
        rendered = afd.pretty()
        assert "A" in rendered.splitlines()[0]
        # {a2, c1, s2} qualifies at τ = 0.4 with A_min = 0.5 (Example 6.1).
        assert "{a2, c1, s2}" in rendered
        assert "0.50" in rendered


#: ``(database, A, τ)`` for the driver's statistics test, built per test.
DRIVER_CASES = {
    "dirty": lambda: (dirty_sources_database(seed=0), MinJoin(EditDistanceSimilarity()), 0.8),
    "noisy-tourist": lambda: (
        noisy_tourist_database(), MinJoin(noisy_tourist_similarity()), 0.5
    ),
    "tourist-exact": lambda: (tourist_database(), ExactJoin(), 1.0),
    "chain": lambda: (
        chain_database(relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5),
        MinJoin(ExactMatchSimilarity()),
        0.6,
    ),
    "star": lambda: (
        star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=11),
        MinJoin(ExactMatchSimilarity()),
        0.6,
    ),
}


class TestApproxDriver:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("case", sorted(DRIVER_CASES))
    def test_a_drained_run_counts_the_work_of_its_passes(self, case, store):
        """Each approximate pass is ``ApproxIncrementalFD`` over the whole
        database: every counter of the driver but ``results_emitted`` is
        the sum of those runs' counters, and ``results_emitted`` counts the
        answers."""
        database, join_function, threshold = DRIVER_CASES[case]()
        drained = FDStatistics()
        summed = FDStatistics()
        with on_store(store):
            answers = approx_full_disjunction(
                database, join_function, threshold, statistics=drained
            )
            for anchor in database.relation_names:
                statistics = FDStatistics()
                list(
                    incremental_fd(
                        database, anchor, statistics=statistics,
                        semantics=ApproxSemantics(join_function, threshold),
                    )
                )
                summed.merge(statistics)
        expected = summed.as_dict()
        expected["results_emitted"] = len(answers)
        assert drained.as_dict() == expected
        assert drained.results >= len(answers) > 0

    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_an_out_of_range_threshold_fails_before_any_step(self, noisy_db, amin, threshold):
        with swapped_step(get_next_result) as steps:
            with pytest.raises(ValueError, match="threshold"):
                approx_full_disjunction(noisy_db, amin, threshold)
        assert steps == []
