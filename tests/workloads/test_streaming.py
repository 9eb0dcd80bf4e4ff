"""The streaming-ingest workload and its replay driver."""

from __future__ import annotations

import pytest

from repro.core.full_disjunction import full_disjunction
from repro.workloads.streaming import (
    IngestEvent,
    ResultEvent,
    StreamSummary,
    hold_back_arrivals,
    replay_stream,
    streaming_chain_workload,
    streaming_star_workload,
)
from repro.workloads.generators import chain_database
from repro.workloads.tourist import tourist_database

from tests.conftest import STORES, on_store


def _keys(tuple_set):
    return frozenset((t.relation_name, t.label) for t in tuple_set)


class TestWorkloadGenerators:
    def test_chain_workload_shape(self):
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=6, seed=3
        )
        assert workload.database.tuple_count() == 12
        assert len(workload.arrivals) == 6
        assert workload.total_tuples() == 18

    def test_star_workload_shape(self):
        workload = streaming_star_workload(spokes=3, base_tuples=3, arrivals=5, seed=1)
        assert workload.database.tuple_count() == 9
        assert len(workload.arrivals) == 5

    def test_generators_are_deterministic(self):
        first = streaming_chain_workload(seed=9)
        second = streaming_chain_workload(seed=9)
        assert first.arrivals == second.arrivals
        assert [t.values for t in first.database.tuples()] == [
            t.values for t in second.database.tuples()
        ]

    def test_hold_back_interleaves_relations(self):
        workload = hold_back_arrivals(tourist_database(), fraction=0.5)
        names = [arrival.relation_name for arrival in workload.arrivals[:3]]
        # Round-robin across relations: the first arrivals hit distinct ones.
        assert len(set(names)) == len(names)

    def test_hold_back_survives_float_dust_and_keeps_the_one_tuple_floor(self):
        # 1 - 4/5 is 0.19999…; naive truncation would hold back nothing.
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=3, seed=2
        )
        assert len(workload.arrivals) == 3
        # Any positive fraction holds back at least one tuple per relation
        # that has more than one.
        tiny = hold_back_arrivals(tourist_database(), fraction=0.05)
        assert len(tiny.arrivals) == len(tourist_database().relations)

    def test_arrivals_preserve_importance_and_probability(self):
        from repro.relational.database import Database
        from repro.relational.relation import Relation

        database = Database()
        for name, attributes in (("R1", ["A", "B"]), ("R2", ["B", "C"])):
            relation = Relation(name, attributes)
            for row in range(4):
                relation.add(
                    [f"v{row}", f"w{row}"],
                    importance=float(row + 1),
                    probability=0.5,
                )
            database.add_relation(relation)
        workload = hold_back_arrivals(database, fraction=0.5)
        assert all(arrival.importance > 0 for arrival in workload.arrivals)
        kept = {r.name: len(r) for r in workload.database.relations}
        list(replay_stream(workload.database, workload.arrivals))
        for relation in workload.database.relations:
            streamed = list(relation)[kept[relation.name]:]
            expected = [
                a for a in workload.arrivals if a.relation_name == relation.name
            ]
            assert [t.importance for t in streamed] == [
                a.importance for a in expected
            ]
            assert all(t.probability == 0.5 for t in streamed)

    def test_hold_back_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            hold_back_arrivals(tourist_database(), fraction=1.0)


@pytest.mark.parametrize("batch_size", [1, 3])
def test_streaming_ingest_builds_the_catalog_exactly_once(batch_size):
    """The acceptance criterion: N streamed tuples, 1 catalog build."""
    workload = streaming_chain_workload(
        relations=3, base_tuples=4, arrivals=6, seed=3
    )
    summary = StreamSummary()
    events = list(
        replay_stream(
            workload.database,
            workload.arrivals,
            batch_size=batch_size,
            summary=summary,
        )
    )
    assert summary.catalog_rebuilds == 1
    assert workload.database.catalog_rebuilds == 1
    assert summary.arrivals_applied == len(workload.arrivals)
    ingested = sum(e.applied for e in events if isinstance(e, IngestEvent))
    assert ingested == len(workload.arrivals)


def test_replay_emits_every_final_result_and_never_retracts():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=6, seed=3)
    summary = StreamSummary()
    events = list(
        replay_stream(workload.database, workload.arrivals,
                      summary=summary)
    )
    emitted = [_keys(e.tuple_set) for e in events if isinstance(e, ResultEvent)]
    assert len(emitted) == len(set(emitted)), "a result set was emitted twice"
    final = {_keys(ts) for ts in full_disjunction(workload.database)}
    assert final <= set(emitted)
    assert [_keys(ts) for ts in summary.results] == emitted


def test_replay_is_the_same_with_and_without_the_index():
    reference = None
    for store in STORES:
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=5, seed=8
        )
        with on_store(store):
            events = list(
                replay_stream(workload.database, workload.arrivals, batch_size=2)
            )
        trace = {
            (_keys(e.tuple_set), e.after_arrivals)
            for e in events
            if isinstance(e, ResultEvent)
        }
        if reference is None:
            reference = trace
        else:
            assert trace == reference


def test_replay_matches_static_database_when_nothing_arrives():
    database = chain_database(relations=3, tuples_per_relation=4, domain_size=3, seed=2)
    expected = [_keys(ts) for ts in full_disjunction(database)]
    events = list(replay_stream(database, arrivals=[]))
    assert [
        _keys(e.tuple_set) for e in events if isinstance(e, ResultEvent)
    ] == expected


def test_partially_consumed_stream_still_reports_the_initial_build():
    workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=4, seed=1)
    summary = StreamSummary()
    events = replay_stream(workload.database, workload.arrivals, summary=summary)
    next(events)  # consume one event, then abandon the stream
    events.close()
    assert summary.catalog_rebuilds == 1


def test_replay_rejects_bad_batch_size():
    database = chain_database(relations=2, tuples_per_relation=2, seed=1)
    with pytest.raises(ValueError, match="batch_size"):
        list(replay_stream(database, arrivals=[], batch_size=0))
