"""Mutation ops in the streaming workload and the recompute reference."""

from __future__ import annotations

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.workloads.streaming import (
    Arrival,
    Removal,
    ResultEvent,
    StreamSummary,
    Update,
    inject_mutations,
    replay_stream,
    streaming_chain_workload,
    streaming_star_workload,
)


def _key(tuple_set):
    return frozenset((t.relation_name, t.label, t.values) for t in tuple_set)


class TestInjectMutations:
    def test_deterministic_and_targets_distinct_base_tuples(self):
        first = streaming_chain_workload(relations=3, base_tuples=4, arrivals=5, seed=2)
        second = streaming_chain_workload(relations=3, base_tuples=4, arrivals=5, seed=2)
        ops_a = inject_mutations(first, 4, seed=9)
        ops_b = inject_mutations(second, 4, seed=9)
        assert ops_a == ops_b
        mutations = [op for op in ops_a if isinstance(op, (Removal, Update))]
        assert len(mutations) == 4
        targets = [(op.relation_name, op.label) for op in mutations]
        assert len(set(targets)) == 4
        base_labels = {
            (relation.name, t.label)
            for relation in first.database.relations
            for t in relation
        }
        assert set(targets) <= base_labels
        # Arrivals are preserved, in order.
        assert [op for op in ops_a if isinstance(op, Arrival)] == first.arrivals

    def test_updates_change_values(self):
        workload = streaming_star_workload(spokes=3, base_tuples=4, arrivals=3, seed=1)
        ops = inject_mutations(workload, 5, seed=0)
        for op in ops:
            if isinstance(op, Update):
                original = workload.database.relation(
                    op.relation_name
                ).tuple_by_label(op.label)
                assert op.values != original.values

    def test_rejects_impossible_requests(self):
        workload = streaming_chain_workload(relations=3, base_tuples=2, arrivals=2)
        with pytest.raises(ValueError, match="non-negative"):
            inject_mutations(workload, -1)
        with pytest.raises(ValueError, match="cannot mutate"):
            inject_mutations(workload, 10_000)


class TestReplayReferenceWithMutations:
    def test_removals_emit_retract_events_and_net_matches_recompute(self):
        workload = streaming_star_workload(spokes=3, base_tuples=4, arrivals=3, seed=2)
        ops = inject_mutations(workload, 3, seed=4)
        summary = StreamSummary()
        events = list(
            replay_stream(workload.database, ops, summary=summary)
        )
        retracts = [
            e for e in events if isinstance(e, ResultEvent) and e.kind == "retract"
        ]
        assert retracts, "the schedule should have torn down at least one result"
        net = {_key(ts) for ts in summary.results}
        standing = set()
        for event in events:
            if not isinstance(event, ResultEvent):
                continue
            if event.kind == "retract":
                standing.discard(_key(event.tuple_set))
            else:
                standing.add(_key(event.tuple_set))
        assert standing == net
        fresh = {
            _key(ts)
            for ts in full_disjunction_sets(workload.database)
        }
        assert fresh <= net

    def test_arrival_only_streams_never_retract(self):
        workload = streaming_chain_workload(relations=3, base_tuples=4, arrivals=6, seed=3)
        events = list(
            replay_stream(workload.database, workload.arrivals)
        )
        assert all(
            event.kind == "emit"
            for event in events
            if isinstance(event, ResultEvent)
        )

    def test_score_only_update_retracts_and_reemits_with_the_new_score(self):
        # Regression: an update that changes only the importance is still a
        # mutation — rankings read it — so the reference must retract the
        # old-score results and emit the new-score ones, exactly like the
        # delta maintainer does.
        from repro.core.ranking import MaxRanking
        from repro.service.delta import incremental_replay_stream

        def run(stream_fn):
            workload = streaming_star_workload(
                spokes=3, base_tuples=3, arrivals=0, seed=4
            )
            target = next(iter(workload.database.relations[0]))
            ops = [
                Update(
                    target.relation_name, target.label, target.values,
                    importance=50.0,
                )
            ]
            events = list(
                stream_fn(
                    workload.database, ops,
                    ranking=MaxRanking(None),
                )
            )
            live = {}
            retracts = 0
            for event in events:
                if not isinstance(event, ResultEvent):
                    continue
                if event.kind == "retract":
                    live.pop(_key(event.tuple_set), None)
                    retracts += 1
                else:
                    live[_key(event.tuple_set)] = event.score
            return set(live.items()), retracts

        replay_standing, replay_retracts = run(replay_stream)
        delta_standing, delta_retracts = run(incremental_replay_stream)
        assert replay_retracts == delta_retracts > 0
        assert replay_standing == delta_standing
        assert any(score == 50.0 for _, score in replay_standing)

    def test_update_retracts_old_values_and_emits_new(self):
        workload = streaming_star_workload(spokes=3, base_tuples=3, arrivals=0, seed=5)
        target = next(iter(workload.database.relations[0]))
        new_values = tuple(f"{value}!" for value in target.values)
        events = list(
            replay_stream(
                workload.database,
                [Update(target.relation_name, target.label, new_values)],
            )
        )
        retracted = [
            e.tuple_set
            for e in events
            if isinstance(e, ResultEvent) and e.kind == "retract"
        ]
        emitted_after = [
            e.tuple_set
            for e in events
            if isinstance(e, ResultEvent) and e.kind == "emit" and e.after_arrivals
        ]
        assert all(
            any(t.label == target.label and t.values == target.values for t in ts)
            for ts in retracted
        )
        assert any(
            any(t.label == target.label and t.values == new_values for t in ts)
            for ts in emitted_after
        )
