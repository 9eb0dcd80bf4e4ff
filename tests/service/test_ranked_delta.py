"""Ranked delta maintenance vs full ranked recompute: the tentpole equivalence.

:func:`~repro.service.delta.incremental_replay_stream` with a ``ranking``
must emit, after any number of ingested arrivals, *exactly* the ranked event
stream :func:`~repro.workloads.streaming.replay_stream` emits by re-running
the whole ranked engine and deduplicating — same result sets, same scores,
same order (both canonicalise rank ties by sort key) — while generating
strictly fewer candidates.  The importance functions are label-derived with
small moduli, so score ties are everywhere: the canonical tie order is part
of what is being tested.
"""

from __future__ import annotations

import pytest

from repro.core.priority import PriorityState, top_k
from repro.core.ranking import MaxRanking
from repro.service.delta import (
    DeltaSummary,
    StreamingFullDisjunction,
    incremental_replay_stream,
)
from repro.service.session import StaleResultLog
from repro.workloads.generators import random_database
from repro.workloads.streaming import (
    Arrival,
    ResultEvent,
    StreamSummary,
    hold_back_arrivals,
    replay_stream,
    streaming_chain_workload,
    streaming_star_workload,
)
from repro.workloads.tourist import tourist_database


def _keys(tuple_set):
    return frozenset((t.relation_name, t.label) for t in tuple_set)


def _ranking(modulus: int = 5):
    """Label-derived importance with deliberate score ties."""
    return MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % modulus))


def _workload_factories():
    yield "chain", lambda: streaming_chain_workload(
        relations=3, base_tuples=4, arrivals=6, seed=3
    )
    yield "star", lambda: streaming_star_workload(
        spokes=3, base_tuples=3, arrivals=6, seed=1
    )
    yield "tourist", lambda: hold_back_arrivals(tourist_database(), fraction=0.5)
    for seed in (0, 5, 9):
        yield f"random-{seed}", lambda seed=seed: hold_back_arrivals(
            random_database(
                relations=3,
                attributes=5,
                arity=3,
                tuples_per_relation=4,
                domain_size=2,
                null_rate=0.25,
                seed=seed,
            ),
            fraction=0.4,
        )


FACTORIES = list(_workload_factories())
FACTORY_IDS = [name for name, _ in FACTORIES]


def _ranked_events(events):
    """The ranked event stream as comparable (after, keys, score) triples."""
    return [
        (event.after_arrivals, _keys(event.tuple_set), event.score)
        for event in events
        if isinstance(event, ResultEvent)
    ]


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("name,factory", FACTORIES, ids=FACTORY_IDS)
def test_ranked_delta_stream_equals_ranked_recompute(name, factory, batch_size):
    """The acceptance bar: identical ranked event streams, fewer candidates."""
    replay_workload, delta_workload = factory(), factory()
    replay_summary, delta_summary = StreamSummary(), DeltaSummary()
    replay_events = list(
        replay_stream(
            replay_workload.database,
            replay_workload.arrivals,
            batch_size=batch_size,
            summary=replay_summary,
            ranking=_ranking(),
        )
    )
    delta_events = list(
        incremental_replay_stream(
            delta_workload.database,
            delta_workload.arrivals,
            batch_size=batch_size,
            summary=delta_summary,
            ranking=_ranking(),
        )
    )

    # Score-and-set *sequence* parity: not merely the same sets, the same
    # events in the same order — ties included.
    assert _ranked_events(delta_events) == _ranked_events(replay_events)
    # Every reported score is the ranking's actual score.
    ranking = _ranking()
    for event in delta_events:
        if isinstance(event, ResultEvent):
            assert event.score == ranking(event.tuple_set)
    # Never a duplicate emission.
    emitted = [
        _keys(e.tuple_set) for e in delta_events if isinstance(e, ResultEvent)
    ]
    assert len(emitted) == len(set(emitted))


@pytest.mark.parametrize("name,factory", FACTORIES, ids=FACTORY_IDS)
def test_ranked_per_arrival_work_shrinks_versus_recompute(name, factory):
    replay_workload, delta_workload = factory(), factory()
    replay_summary, delta_summary = StreamSummary(), DeltaSummary()
    list(
        replay_stream(
            replay_workload.database, replay_workload.arrivals, summary=replay_summary, ranking=_ranking(),
        )
    )
    list(
        incremental_replay_stream(
            delta_workload.database, delta_workload.arrivals, summary=delta_summary, ranking=_ranking(),
        )
    )
    replay_work = replay_summary.statistics.candidates_generated
    delta_work = delta_summary.statistics.candidates_generated
    assert delta_work < replay_work, (
        f"{name}: ranked delta generated {delta_work} candidates, "
        f"recompute {replay_work}"
    )
    assert len(delta_summary.per_batch) == len(delta_workload.arrivals)


@pytest.mark.parametrize("c", [1, 2])
def test_ranked_delta_with_higher_determination_bounds(c):
    """The seeded-subset argument holds beyond f_max: a 2-determined ranking."""
    from repro.core.ranking import CDeterminedRanking, importance_function

    def make_ranking():
        imp = importance_function(lambda t: float(sum(ord(ch) for ch in t.label) % 5))
        if c == 1:
            return MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 5))
        return CDeterminedRanking(c, lambda subset: sum(imp(t) for t in subset))

    def factory():
        return streaming_chain_workload(relations=3, base_tuples=4, arrivals=4, seed=7)

    replay_workload, delta_workload = factory(), factory()
    replay_events = list(
        replay_stream(
            replay_workload.database, replay_workload.arrivals, ranking=make_ranking(),
        )
    )
    delta_events = list(
        incremental_replay_stream(
            delta_workload.database, delta_workload.arrivals, ranking=make_ranking(),
        )
    )
    assert _ranked_events(delta_events) == _ranked_events(replay_events)


def test_first_k_cutoff_matches_top_k_then_resumes_into_arrivals():
    """A ranked session pulls first-k lazily, then observes the ingest."""
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=3, seed=3)
    reference = streaming_chain_workload(relations=3, base_tuples=4, arrivals=3, seed=3)
    maintainer = StreamingFullDisjunction(
        workload.database, ranking=_ranking()
    )
    session = maintainer.session(name="client")
    prefix = session.next(3)
    expected = top_k(reference.database, _ranking(), 3)
    # Scores agree position by position; the sets agree up to score ties
    # (the maintainer canonicalises tie order, the engine uses queue order).
    assert [score for _, score in prefix] == [score for _, score in expected]
    assert {(_keys(ts), s) for ts, s in prefix} | {
        (_keys(ts), s) for ts, s in expected
    } <= {
        (_keys(ts), ranking_score)
        for ts, ranking_score in top_k(
            reference.database, _ranking(), 10_000
        )
    }

    record = maintainer.ingest(workload.arrivals)
    fresh = session.drain()
    new_items = [item for item in fresh if _keys(item[0]) not in
                 {_keys(ts) for ts, _ in prefix}]
    assert len(fresh) >= record["results_emitted"]
    # New results (beyond the base tail) are rank-ordered within the batch.
    batch_scores = [score for _, score in fresh[-record["results_emitted"]:]]
    assert batch_scores == sorted(batch_scores, reverse=True)
    assert len(new_items) == len(fresh)  # no duplicates ever re-emitted
    maintainer.close()
    assert session.exhausted


def test_ranked_maintainer_results_match_fresh_top_k_on_ingested_database():
    workload = streaming_star_workload(spokes=3, base_tuples=3, arrivals=5, seed=2)
    maintainer = StreamingFullDisjunction(
        workload.database, ranking=_ranking()
    )
    maintainer.prime()
    maintainer.ingest(workload.arrivals)
    emitted = {(_keys(ts), score) for ts, score in maintainer.results}
    final = {
        (_keys(ts), score)
        for ts, score in top_k(workload.database, _ranking(), 10_000)
    }
    # Monotone emission: the ranked FD of the fully ingested database is
    # contained in what was emitted (old results are never retracted).
    assert final <= emitted


def test_ranked_ingest_before_prime_primes_first():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    maintainer = StreamingFullDisjunction(
        workload.database, ranking=_ranking()
    )
    maintainer.ingest(workload.arrivals[:1])
    expected = {
        _keys(ts)
        for ts, _ in top_k(workload.database, _ranking(), 10_000)
    }
    assert expected <= {_keys(ts) for ts, _ in maintainer.results}


def test_priority_state_seeds_only_subsets_containing_the_arrival():
    """The delta work bound: seeded queue members all contain the arrival."""
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    state = PriorityState(workload.database, _ranking())
    list(state.results())  # drain the base run; queues are now empty
    assert all(len(pool) == 0 for pool in state.pools)

    arrival = workload.arrivals[0]
    t = workload.database.add_tuple(
        arrival.relation_name, arrival.values, importance=arrival.importance
    )
    seeded = state.ingest([t])
    assert seeded >= 1
    for pool in state.pools:
        for member in pool:
            assert t in member


def test_stale_ranked_cached_prefix_fails_fast_after_ingest():
    """The satellite: StaleResultLog semantics extend to ranked cursors."""
    from repro.service.cache import PrefixCache

    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    database = workload.database
    cache = PrefixCache()
    session = cache.open(database, "priority", ranking=_ranking())
    prefix = session.next(2)
    assert len(prefix) == 2

    arrival = workload.arrivals[0]
    database.add_tuple(
        arrival.relation_name, arrival.values, importance=arrival.importance
    )
    invalidated = cache.invalidate(database)
    assert invalidated == 1
    # The materialized prefix stays readable; pulls beyond it fail fast.
    assert session.emitted == prefix
    with pytest.raises(StaleResultLog, match="generation"):
        session.next(10_000)
    # A reopened ranked query serves the post-ingest stream cleanly.
    fresh = cache.open(database, "priority", ranking=_ranking())
    scores = [score for _, score in fresh.drain()]
    assert scores == sorted(scores, reverse=True)


def test_equal_ranking_specs_share_one_cached_ranked_log():
    """(generation, ranking, c) keying: fresh-but-equal MaxRankings share."""
    from repro.service.cache import PrefixCache

    database = tourist_database()
    importance = {t.label: float(ord(t.label[0])) for t in database.tuples()}
    cache = PrefixCache()
    first = cache.open(database, "priority", ranking=MaxRanking(importance))
    second = cache.open(database, "priority", ranking=MaxRanking(dict(importance)))
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 1
    assert first.log is second.log


def test_ranked_and_unranked_delta_agree_on_the_result_sets():
    """The ranked maintainer finds exactly the unranked maintainer's sets."""
    ranked_workload = streaming_chain_workload(
        relations=3, base_tuples=4, arrivals=5, seed=11
    )
    plain_workload = streaming_chain_workload(
        relations=3, base_tuples=4, arrivals=5, seed=11
    )
    ranked_events = list(
        incremental_replay_stream(
            ranked_workload.database, ranked_workload.arrivals, ranking=_ranking(),
        )
    )
    plain_events = list(
        incremental_replay_stream(
            plain_workload.database, plain_workload.arrivals
        )
    )
    ranked_sets = {
        _keys(e.tuple_set) for e in ranked_events if isinstance(e, ResultEvent)
    }
    plain_sets = {
        _keys(e.tuple_set) for e in plain_events if isinstance(e, ResultEvent)
    }
    assert ranked_sets == plain_sets


def test_ranked_delta_stream_records_store_counters():
    """The summary's extras carry the store work even without a close()."""
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=3, seed=3)
    summary = DeltaSummary()
    list(
        incremental_replay_stream(
            workload.database, workload.arrivals, summary=summary, ranking=_ranking(),
        )
    )
    extras = summary.statistics.extras
    assert extras.get("complete_sets_scanned", 0) > 0
    assert extras.get("incomplete_additions", 0) > 0


def test_ranked_ingest_is_atomic_on_a_bad_arrival():
    from repro.relational.errors import DatabaseError

    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    maintainer = StreamingFullDisjunction(
        workload.database, ranking=_ranking()
    )
    maintainer.prime()
    tuples_before = workload.database.tuple_count()
    good = workload.arrivals[0]
    with pytest.raises(DatabaseError):
        maintainer.ingest([good, Arrival("NoSuchRelation", ("x",))])
    assert workload.database.tuple_count() == tuples_before
    assert maintainer.arrivals_applied == 0
    record = maintainer.ingest([good])
    assert record["arrivals"] == 1
