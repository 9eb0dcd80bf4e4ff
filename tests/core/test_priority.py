"""Tests for ``PriorityIncrementalFD`` (Fig. 3): ranked and threshold retrieval."""

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.core.full_disjunction import full_disjunction
from repro.core.incremental import FDStatistics
from repro.core.priority import (
    PriorityState,
    above_threshold,
    build_priority_pools,
    priority_incremental_fd,
    top_k,
)
from repro.core.ranking import (
    CDeterminedRanking,
    MaxRanking,
    SumRanking,
    importance_function,
    paper_example_ranking,
    top_k_by_exhaustive_ranking,
)
from repro.relational.errors import RankingError
from repro.workloads.generators import chain_database, star_database
from repro.workloads.tourist import tourist_importance

from tests.conftest import labels_of


@pytest.fixture
def ranking():
    return MaxRanking(tourist_importance())


class TestBuildPriorityPools:
    def test_one_pool_per_relation(self, tourist_db, ranking):
        pools = build_priority_pools(tourist_db, ranking)
        assert len(pools) == 3

    def test_no_two_pool_members_share_an_fd_member(self, tourist_db, ranking):
        """The merge loop re-establishes the Remark 4.5 invariant."""
        pools = build_priority_pools(tourist_db, ranking)
        results = full_disjunction(tourist_db)
        for pool in pools:
            members = list(pool)
            for result in results:
                inside = [m for m in members if m.issubset(result)]
                assert len(inside) <= 1

    def test_rejects_non_c_determined_ranking(self, tourist_db):
        with pytest.raises(RankingError):
            build_priority_pools(tourist_db, SumRanking(tourist_importance()))


class TestRankedOrder:
    def test_produces_whole_fd_in_non_increasing_order(self, tourist_db, ranking):
        ranked = list(priority_incremental_fd(tourist_db, ranking))
        assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(tourist_db))
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_reported_scores_match_the_ranking_function(self, tourist_db, ranking):
        for tuple_set, score in priority_incremental_fd(tourist_db, ranking):
            assert score == ranking(tuple_set)

    def test_intro_scenario_best_destination_first(self, tourist_db, ranking):
        # The tourist prefers the 4-star Plaza (imp 4) above everything else.
        best, score = next(iter(priority_incremental_fd(tourist_db, ranking)))
        assert best.labels() == frozenset({"c1", "a1"})
        assert score == 4.0

    def test_works_with_3_determined_ranking(self, tourist_db):
        ranking = paper_example_ranking(tourist_importance())
        ranked = list(priority_incremental_fd(tourist_db, ranking))
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(tourist_db))

    def test_works_with_2_determined_ranking_on_synthetic_data(self):
        database = chain_database(relations=3, tuples_per_relation=5, domain_size=3, seed=11)
        imp = importance_function(lambda t: float(len(t.label)))
        ranking = CDeterminedRanking(2, lambda subset: max(imp(t) for t in subset))
        ranked = list(priority_incremental_fd(database, ranking))
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(database))

    def test_statistics_are_populated(self, tourist_db, ranking):
        statistics = FDStatistics()
        list(priority_incremental_fd(tourist_db, ranking, statistics=statistics))
        assert statistics.results == 6
        assert statistics.tuple_reads > 0


class TestTopK:
    def test_top_k_matches_exhaustive_ranking(self, tourist_db, ranking):
        all_results = full_disjunction(tourist_db)
        for k in (1, 2, 3, 6):
            expected_scores = sorted(
                (ranking(ts) for ts in all_results), reverse=True
            )[:k]
            got = top_k(tourist_db, ranking, k)
            assert [score for _, score in got] == expected_scores

    def test_top_k_on_star_matches_exhaustive(self, ranking):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        imp = importance_function(lambda t: float(hash(t.label) % 13))
        star_ranking = MaxRanking(imp)
        expected = top_k_by_exhaustive_ranking(
            full_disjunction(database), star_ranking, 5
        )
        got = top_k(database, star_ranking, 5)
        assert [star_ranking(ts) for ts, _ in got] == [star_ranking(ts) for ts in expected]

    def test_k_zero_returns_nothing(self, tourist_db, ranking):
        assert top_k(tourist_db, ranking, 0) == []

    def test_k_larger_than_result_returns_everything(self, tourist_db, ranking):
        assert len(top_k(tourist_db, ranking, 50)) == 6

    def test_negative_k_raises(self, tourist_db, ranking):
        with pytest.raises(ValueError):
            list(priority_incremental_fd(tourist_db, ranking, k=-1))

    def test_results_are_distinct(self, tourist_db, ranking):
        results = [ts for ts, _ in top_k(tourist_db, ranking, 6)]
        assert len(results) == len(set(results))

    def test_non_c_determined_ranking_is_rejected(self, tourist_db):
        with pytest.raises(RankingError):
            top_k(tourist_db, SumRanking(tourist_importance()), 1)


class TestPriorityState:
    def test_resumed_pulls_continue_one_stream(self, tourist_db, ranking):
        """The queue state is explicit: stop, resume, get the same stream."""
        reference = list(priority_incremental_fd(tourist_db, ranking))
        state = PriorityState(tourist_db, ranking)
        resumed = []
        resumed.extend(state.results(k=2))
        resumed.extend(state.results(k=1))
        resumed.extend(state.results())
        assert [(ts.labels(), s) for ts, s in resumed] == [
            (ts.labels(), s) for ts, s in reference
        ]
        assert state.printed == len(reference)

    def test_abandoned_generator_leaves_the_state_resumable(self, tourist_db, ranking):
        state = PriorityState(tourist_db, ranking)
        first = next(iter(state.results()))  # abandon the generator mid-stream
        rest = list(state.results())
        reference = list(priority_incremental_fd(tourist_db, ranking))
        assert [first[1]] + [s for _, s in rest] == [s for _, s in reference]

    def test_record_statistics_is_delta_safe(self, tourist_db, ranking):
        """Recording at every pause never double-counts store work."""
        statistics = FDStatistics()
        state = PriorityState(tourist_db, ranking,
                              statistics=statistics)
        list(state.results(k=2))
        state.record_statistics()
        mid = dict(statistics.extras)
        state.record_statistics()  # no work in between: nothing to charge
        assert statistics.extras == mid
        list(state.results())
        state.record_statistics()

        reference_statistics = FDStatistics()
        list(
            priority_incremental_fd(
                tourist_db, ranking,
                statistics=reference_statistics,
            )
        )
        assert (
            statistics.extras["complete_sets_scanned"]
            == reference_statistics.extras["complete_sets_scanned"]
        )


class TestThreshold:
    def test_returns_exactly_the_results_at_or_above_tau(self, tourist_db, ranking):
        all_results = full_disjunction(tourist_db)
        for tau in (1.0, 2.0, 2.5, 3.0, 4.0, 5.0):
            expected = {ts.labels() for ts in all_results if ranking(ts) >= tau}
            got = above_threshold(tourist_db, ranking, tau)
            assert {ts.labels() for ts, _ in got} == expected, tau

    def test_threshold_output_is_rank_ordered(self, tourist_db, ranking):
        scores = [score for _, score in above_threshold(tourist_db, ranking, 2.0)]
        assert scores == sorted(scores, reverse=True)

    def test_threshold_above_everything_returns_nothing(self, tourist_db, ranking):
        assert above_threshold(tourist_db, ranking, 99.0) == []

    def test_tie_boundary_counters_split_produced_from_emitted(self):
        """Regression: a result produced at a rank tie straddling the
        threshold is recorded in Complete but not emitted — ``results``
        counts the former, ``results_emitted`` the latter."""
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, seed=11
        )
        # Two importance levels only: masses of duplicated scores, so some
        # queue top ties the threshold while its extension scores below it.
        ranking = MaxRanking(
            lambda t: 2.0 if sum(ord(ch) for ch in t.label) % 2 else 1.0
        )
        scores = sorted(
            {score for _, score in priority_incremental_fd(database, ranking)}
        )
        assert len(scores) >= 2, "the fixture must produce both score levels"
        tau = scores[-1]  # only the top tie group passes

        statistics = FDStatistics()
        emitted = list(
            priority_incremental_fd(
                database, ranking, threshold=tau, statistics=statistics
            )
        )
        assert all(score >= tau for _, score in emitted)
        assert statistics.results_emitted == len(emitted)
        # The produced counter includes the below-threshold skips, which is
        # exactly why it must not be read as "results delivered".
        assert statistics.results >= statistics.results_emitted

    def test_duplicated_importances_keep_counters_in_agreement(self, tourist_db):
        """With a truly monotone ranking, ties at tau are all emitted and
        the produced/emitted counters agree."""
        ranking = MaxRanking(
            {label: 1.0 for label in
             ("c1", "c2", "c3", "a1", "a2", "a3", "s1", "s2", "s3", "s4")}
        )
        statistics = FDStatistics()
        emitted = list(
            priority_incremental_fd(
                tourist_db, ranking, threshold=1.0, statistics=statistics
            )
        )
        assert emitted and all(score == 1.0 for _, score in emitted)
        assert statistics.results == statistics.results_emitted == len(emitted)

    def test_tie_boundary_skips_are_counted_as_produced_not_emitted(self, tourist_db):
        """The skip path itself: a ranking whose declared monotonicity is
        violated makes whole results score below their queue-top witnesses,
        so the threshold-tie skip fires — the result lands in Complete (it
        was produced, and must suppress re-derivations) and is counted in
        ``results`` but not in ``results_emitted``."""
        class LyingRanking(MaxRanking):
            def score(self, tuple_set):
                return 1.0 if len(tuple_set) <= 1 else 0.5

        statistics = FDStatistics()
        emitted = list(
            priority_incremental_fd(
                tourist_db, LyingRanking({}, default=0.0),
                threshold=1.0, statistics=statistics,
            )
        )
        # Every queue top is a singleton scoring 1.0 >= tau, every extended
        # result scores 0.5 < tau: nothing is emitted, yet results were
        # produced — the two counters must disagree by exactly the skips.
        assert emitted == []
        assert statistics.results_emitted == 0
        assert statistics.results > 0


#: One unindexed ranked run, printed as JSON: the ``(answer, rank)`` stream
#: and every ``FDStatistics`` field.
_RANKED_RUN = """
import json, random
from repro.core.incremental import FDStatistics
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.workloads.generators import chain_database

database = chain_database(4, 12, 4, 0.15, seed=1)
rng = random.Random(1)
importance = {t.label: rng.randrange(5) for t in database.tuples()}
statistics = FDStatistics()
stream = [
    [sorted(t.label for t in result), rank]
    for result, rank in priority_incremental_fd(
        database, MaxRanking(importance), statistics=statistics
    )
]
print(json.dumps([stream, statistics.as_dict()]))
"""


def _ranked_run(hash_seed):
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=source if not path else source + os.pathsep + path,
    )
    child = subprocess.run(
        [sys.executable, "-c", _RANKED_RUN],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(child.stdout)


def test_a_ranked_run_does_not_depend_on_the_hash_seed():
    """The Line 14 bucket probe, Fig. 3's Lines 5–8 merge and the
    tombstone sweep walk a queue's members; they must meet them in an order
    no string hash (nor ``Null``'s address-based hash) decides, so the
    same query gives the same stream and counters in every process."""
    first, second = _ranked_run("0"), _ranked_run("1")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[1]["candidates_generated"] > 0
