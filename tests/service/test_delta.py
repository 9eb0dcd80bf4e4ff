"""Streaming delta maintenance vs full recompute: the satellite equivalence.

:func:`~repro.service.delta.incremental_replay_stream` must emit, after any
number of ingested arrivals, exactly the result sets
:func:`~repro.workloads.streaming.replay_stream` emits by re-running the
whole engine and deduplicating — while the statistics counters show the
per-arrival work shrinking from "proportional to the full result" to
"proportional to the delta".  The fixtures are the streaming workload
generators the replay tests already use.
"""

from __future__ import annotations

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.service.delta import (
    DeltaSummary,
    StreamingFullDisjunction,
    incremental_replay_stream,
)
from repro.workloads.generators import random_database
from repro.workloads.streaming import (
    IngestEvent,
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


def _cumulative_per_arrival(events):
    """Map each after-arrivals point to the cumulative emitted result set."""
    checkpoints = {}
    accumulated = set()
    for event in events:
        if isinstance(event, ResultEvent):
            accumulated.add(_keys(event.tuple_set))
            checkpoints[event.after_arrivals] = set(accumulated)
    return accumulated, checkpoints


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("name,factory", FACTORIES, ids=FACTORY_IDS)
def test_delta_stream_equals_full_recompute_arrival_by_arrival(
    name, factory, batch_size
):
    replay_workload, delta_workload = factory(), factory()
    replay_summary, delta_summary = StreamSummary(), DeltaSummary()
    replay_events = list(
        replay_stream(
            replay_workload.database,
            replay_workload.arrivals,
            batch_size=batch_size,
            summary=replay_summary,
        )
    )
    delta_events = list(
        incremental_replay_stream(
            delta_workload.database,
            delta_workload.arrivals,
            batch_size=batch_size,
            summary=delta_summary,
        )
    )

    replay_final, replay_checkpoints = _cumulative_per_arrival(replay_events)
    delta_final, delta_checkpoints = _cumulative_per_arrival(delta_events)
    assert delta_final == replay_final
    # At every arrival point where both emitted something, the cumulative
    # emitted sets agree (a point missing on one side emitted nothing new).
    for point in set(replay_checkpoints) & set(delta_checkpoints):
        assert delta_checkpoints[point] == replay_checkpoints[point], (
            f"divergence after {point} arrivals"
        )
    # Never a duplicate emission.
    emitted = [
        _keys(e.tuple_set) for e in delta_events if isinstance(e, ResultEvent)
    ]
    assert len(emitted) == len(set(emitted))
    assert {_keys(ts) for ts in delta_summary.results} == delta_final


@pytest.mark.parametrize("name,factory", FACTORIES, ids=FACTORY_IDS)
def test_per_arrival_work_shrinks_versus_recompute(name, factory):
    """The satellite criterion, via the machine-independent work counters."""
    replay_workload, delta_workload = factory(), factory()
    replay_summary, delta_summary = StreamSummary(), DeltaSummary()
    list(
        replay_stream(
            replay_workload.database, replay_workload.arrivals, summary=replay_summary,
        )
    )
    list(
        incremental_replay_stream(
            delta_workload.database, delta_workload.arrivals, summary=delta_summary,
        )
    )
    replay_work = replay_summary.statistics.candidates_generated
    delta_work = delta_summary.statistics.candidates_generated
    assert delta_work < replay_work, (
        f"{name}: delta generated {delta_work} candidates, "
        f"recompute {replay_work}"
    )
    assert delta_summary.delta_work() <= delta_work
    assert len(delta_summary.per_batch) == len(delta_workload.arrivals)


def test_final_state_matches_a_fresh_run_on_the_ingested_database():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=6, seed=3)
    events = list(
        incremental_replay_stream(workload.database, workload.arrivals)
    )
    emitted = {_keys(e.tuple_set) for e in events if isinstance(e, ResultEvent)}
    final = {_keys(ts) for ts in full_disjunction(workload.database)}
    # Monotone emission: the final FD is contained in what was emitted (old
    # results may have become non-maximal but are never retracted).
    assert final <= emitted


def test_exactly_one_catalog_build():
    workload = streaming_star_workload(spokes=3, base_tuples=3, arrivals=6, seed=1)
    summary = DeltaSummary()
    list(
        incremental_replay_stream(
            workload.database, workload.arrivals, batch_size=2, summary=summary
        )
    )
    assert summary.catalog_rebuilds == 1
    assert workload.database.catalog_rebuilds == 1
    assert summary.arrivals_applied == len(workload.arrivals)


def test_open_sessions_observe_arrivals_without_restarting():
    """The tentpole behaviour: a paused session resumes into the new results."""
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=4, seed=3)
    maintainer = StreamingFullDisjunction(workload.database)
    session = maintainer.session(name="client")
    prefix = session.next(3)
    assert len(prefix) == 3

    maintainer.prime()
    base_total = len(maintainer.results)
    rest = session.drain()
    assert len(prefix) + len(rest) == base_total
    assert not session.exhausted  # the log is live: more may arrive

    record = maintainer.ingest(workload.arrivals[:2])
    fresh = session.drain()
    assert len(fresh) == record["results_emitted"]
    seen = {_keys(ts) for ts in prefix + rest}
    assert all(_keys(ts) not in seen for ts in fresh)
    maintainer.close()
    assert session.exhausted


def test_ingest_before_prime_primes_first():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    maintainer = StreamingFullDisjunction(workload.database)
    maintainer.ingest(workload.arrivals[:1])  # must not mis-classify base results
    expected = {_keys(ts) for ts in full_disjunction(workload.database)}
    assert expected <= {_keys(ts) for ts in maintainer.results}


def test_ingest_is_atomic_on_a_bad_arrival():
    """A bad arrival must not leave earlier ones applied without delta passes."""
    from repro.relational.errors import DatabaseError
    from repro.workloads.streaming import Arrival

    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    maintainer = StreamingFullDisjunction(workload.database)
    maintainer.prime()
    tuples_before = workload.database.tuple_count()
    good = workload.arrivals[0]
    with pytest.raises(DatabaseError):
        maintainer.ingest([good, Arrival("NoSuchRelation", ("x",))])
    # A wrong-arity arrival is caught up front too, not mid-mutation.
    from repro.relational.errors import SchemaError

    with pytest.raises(SchemaError, match="values"):
        maintainer.ingest([good, Arrival(good.relation_name, ("just-one-value",))])
    # Nothing was applied: the good arrival can still be ingested cleanly.
    assert workload.database.tuple_count() == tuples_before
    assert maintainer.arrivals_applied == 0
    record = maintainer.ingest([good])
    assert record["arrivals"] == 1


def test_the_base_run_counts_every_step_it_takes():
    from repro.core.incremental import get_next_result
    from tests.core.reference_step import swapped_step

    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=3)
    maintainer = StreamingFullDisjunction(workload.database)
    with swapped_step(get_next_result) as steps:
        maintainer.prime()
    expected = full_disjunction(workload.database)
    assert [_keys(ts) for ts in maintainer.results] == [_keys(ts) for ts in expected]
    # The base run is the full driver: one step per result it produced.
    assert len(steps) == maintainer.statistics.results > 0


def test_bad_batch_size_is_rejected():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=2, seed=1)
    with pytest.raises(ValueError, match="batch_size"):
        list(
            incremental_replay_stream(
                workload.database, workload.arrivals, batch_size=0
            )
        )
