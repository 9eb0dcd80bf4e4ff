"""Property-based tests for ranked retrieval (Section 5)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.full_disjunction import full_disjunction
from repro.core.priority import priority_incremental_fd, top_k
from repro.core.ranking import CDeterminedRanking, MaxRanking, importance_function
from repro.relational.database import Database
from repro.relational.relation import Relation

from tests.conftest import labels_of, small_databases

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def label_hash_importance(t):
    """A deterministic pseudo-random importance derived from the tuple label."""
    return float(sum(ord(ch) for ch in t.label) % 17)


@RELAXED
@given(database=small_databases())
def test_priority_fd_produces_the_whole_fd_in_ranking_order(database):
    ranking = MaxRanking(label_hash_importance)
    ranked = list(priority_incremental_fd(database, ranking))
    assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(database))
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)


def test_a_result_printed_through_another_queue_keeps_its_rank():
    """{r1_4, r2_1, r4_3} ranks 6 through r4_3, whose only queue is R4's.  R4's
    step on {r4_3} derives {r1_4, r4_3}, inside {r1_4, r2_4, r3_4, r4_3}
    printed through R3's queue; Line 11 must not drop it on that account, or
    the result comes out only after the 5s, from {r1_4} (rank 4) in R1's."""
    database = Database()
    for name, attributes, rows in [
        ("R1", ["A", "D"], [["u", "u"], ["w", None], [None, "w"], ["u", "w"]]),
        ("R2", ["C", "D", "B"], [[None, "w", "u"], [None, "w", "w"], ["v", "v", "u"],
                                 ["u", "w", "w"]]),
        ("R3", ["C"], [["u"], ["u"], ["u"], ["u"]]),
        ("R4", ["A"], [[None], ["v"], ["u"]]),
    ]:
        relation = Relation(name, attributes, label_prefix=f"{name.lower()}_")
        for row in rows:
            relation.add(row)
        database.add_relation(relation)
    ranking = MaxRanking(label_hash_importance)
    for use_index in (False, True):
        ranked = list(priority_incremental_fd(database, ranking, use_index=use_index))
        assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(database))
        assert [score for _, score in ranked] == [6.0] * 8 + [5.0] * 4 + [4.0, 4.0, 3.0, 3.0, 2.0]


@RELAXED
@given(database=small_databases(), k=st.integers(min_value=1, max_value=6))
def test_top_k_scores_match_exhaustive_ranking(database, k):
    ranking = MaxRanking(label_hash_importance)
    everything = sorted(
        (ranking(ts) for ts in full_disjunction(database)), reverse=True
    )
    got = [score for _, score in top_k(database, ranking, k)]
    assert got == everything[: len(got)]
    assert len(got) == min(k, len(everything))


@RELAXED
@given(database=small_databases(max_relations=3, max_tuples=3))
def test_2_determined_ranking_is_also_served_in_order(database):
    imp = importance_function(label_hash_importance)
    ranking = CDeterminedRanking(
        2, lambda subset: sum(imp(t) for t in subset), name="pair_sum"
    )
    ranked = list(priority_incremental_fd(database, ranking))
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)
    assert labels_of(ts for ts, _ in ranked) == labels_of(full_disjunction(database))


@RELAXED
@given(database=small_databases(), threshold=st.floats(min_value=0.0, max_value=16.0))
def test_threshold_variant_returns_exactly_the_qualifying_results(database, threshold):
    ranking = MaxRanking(label_hash_importance)
    expected = {
        ts.labels() for ts in full_disjunction(database) if ranking(ts) >= threshold
    }
    got = list(priority_incremental_fd(database, ranking, threshold=threshold))
    assert {ts.labels() for ts, _ in got} == expected
    assert all(score >= threshold for _, score in got)
