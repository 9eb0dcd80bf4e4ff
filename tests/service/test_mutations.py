"""Mutable streams: the tentpole equivalence for deletions and updates.

The invariant, per batch of any interleaving of arrivals, tombstone
deletions and in-place updates:

* the *net* delta event stream (emits minus retracts) of
  :func:`~repro.service.delta.incremental_replay_stream` equals the
  recompute reference :func:`~repro.workloads.streaming.replay_stream` —
  which diffs a full engine re-run per batch — at every checkpoint;
* on a deletions-only stream the net result set equals a full recompute on
  the post-deletion database *exactly*;
* every standing result is a join-consistent, connected set of live tuples,
  and every member of the final database's full disjunction is standing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.core.ranking import MaxRanking
from repro.service.delta import (
    DeltaSummary,
    StreamingFullDisjunction,
    incremental_replay_stream,
)
from repro.service.session import Retraction
from repro.workloads.generators import random_database
from repro.workloads.streaming import (
    Arrival,
    Removal,
    ResultEvent,
    StreamSummary,
    Update,
    hold_back_arrivals,
    inject_mutations,
    replay_stream,
    streaming_chain_workload,
    streaming_star_workload,
)
from repro.workloads.tourist import tourist_database


def _key(tuple_set):
    return frozenset((t.relation_name, t.label, t.values) for t in tuple_set)


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


def _checkpoints(events):
    """Per-arrival-point cumulative (standing, retracted) key sets."""
    standing = {}
    retracted_keys = set()
    marks = {}
    for event in events:
        if isinstance(event, ResultEvent):
            key = _key(event.tuple_set)
            if event.kind == "retract":
                standing.pop(key, None)
                retracted_keys.add(key)
            else:
                standing[key] = event
            marks[event.after_arrivals] = (
                set(standing),
                set(retracted_keys),
            )
    return set(standing), retracted_keys, marks


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize("name,factory", FACTORIES, ids=FACTORY_IDS)
def test_mutated_delta_stream_equals_recompute_reference(name, factory, batch_size):
    """Arrivals + deletions + updates: net delta stream == recompute diff."""
    replay_workload, delta_workload = factory(), factory()
    ops = inject_mutations(replay_workload, mutations=3, seed=7)
    delta_ops = inject_mutations(delta_workload, mutations=3, seed=7)
    replay_summary, delta_summary = StreamSummary(), DeltaSummary()
    replay_events = list(
        replay_stream(
            replay_workload.database,
            ops,
            batch_size=batch_size,
            summary=replay_summary,
        )
    )
    delta_events = list(
        incremental_replay_stream(
            delta_workload.database,
            delta_ops,
            batch_size=batch_size,
            summary=delta_summary,
        )
    )

    replay_standing, replay_retracted, replay_marks = _checkpoints(replay_events)
    delta_standing, delta_retracted, delta_marks = _checkpoints(delta_events)
    assert delta_standing == replay_standing
    if batch_size == 1:
        # One op per batch: the streams agree retract for retract.
        assert delta_retracted == replay_retracted
        for point in set(replay_marks) & set(delta_marks):
            assert delta_marks[point] == replay_marks[point], (
                f"divergence after {point} ops"
            )
    else:
        # Multi-op batches may pass through intermediate states the atomic
        # per-batch recompute never sees (an arrival's result deleted later
        # in the same batch is emitted then retracted); the *net* standing
        # set still agrees at every checkpoint.
        assert delta_retracted >= replay_retracted
        for point in set(replay_marks) & set(delta_marks):
            assert delta_marks[point][0] == replay_marks[point][0], (
                f"divergence after {point} ops"
            )

    # Summaries carry the same net list.
    assert {_key(ts) for ts in delta_summary.results} == delta_standing
    assert {_key(ts) for ts in replay_summary.results} == replay_standing
    assert delta_summary.retractions() > 0

    # Every member of the final full disjunction is standing, and every
    # standing result is a valid JCC set of live tuples.
    final = {
        _key(ts)
        for ts in full_disjunction_sets(delta_workload.database)
    }
    assert final <= delta_standing
    live = {
        (t.relation_name, t.label, t.values)
        for t in delta_workload.database.tuples()
    }
    for ts in delta_summary.results:
        assert _key(ts) <= live
        assert ts.is_jcc

    # Delta maintenance does strictly less work than re-running the engine.
    assert delta_summary.delta_work() < (
        replay_summary.statistics.candidates_generated
    )


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_deletion_only_stream_equals_full_recompute_exactly(seed):
    """With no arrivals in the mix, the net set IS the recompute, per batch."""
    rng = random.Random(seed)
    database = random_database(
        relations=3,
        attributes=5,
        arity=3,
        tuples_per_relation=4,
        domain_size=2,
        null_rate=0.2,
        seed=seed,
    )
    maintainer = StreamingFullDisjunction(database)
    maintainer.prime()
    targets = [(r.name, t.label) for r in database.relations for t in r if len(r) > 1]
    rng.shuffle(targets)
    for relation_name, label in targets[:4]:
        if len(database.relation(relation_name)) <= 1:
            continue
        maintainer.remove([Removal(relation_name, label)])
        net = {_key(ts) for ts in maintainer.results}
        fresh = {
            _key(ts) for ts in full_disjunction_sets(database)
        }
        assert net == fresh, f"divergence after deleting {label}"


@pytest.mark.parametrize("batch_size", [1, 2])
@pytest.mark.parametrize(
    "name,factory",
    [pair for pair in FACTORIES if pair[0] in ("chain", "star", "tourist")],
    ids=[name for name, _ in FACTORIES if name in ("chain", "star", "tourist")],
)
def test_ranked_mutated_stream_parity(name, factory, batch_size):
    """Ranked streams: same events, same scores, canonical emit order."""

    def _ranking():
        return MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 5))

    replay_workload, delta_workload = factory(), factory()
    ops = inject_mutations(replay_workload, mutations=3, seed=11)
    delta_ops = inject_mutations(delta_workload, mutations=3, seed=11)
    replay_events = list(
        replay_stream(
            replay_workload.database,
            ops,
            batch_size=batch_size,
            ranking=_ranking(),
        )
    )
    delta_events = list(
        incremental_replay_stream(
            delta_workload.database,
            delta_ops,
            batch_size=batch_size,
            ranking=_ranking(),
        )
    )

    def ranked_emits(events):
        return [
            (e.after_arrivals, _key(e.tuple_set), e.score)
            for e in events
            if isinstance(e, ResultEvent) and e.kind == "emit"
        ]

    def ranked_retracts(events):
        grouped = {}
        for e in events:
            if isinstance(e, ResultEvent) and e.kind == "retract":
                grouped.setdefault(e.after_arrivals, set()).add(
                    (_key(e.tuple_set), e.score)
                )
        return grouped

    if batch_size == 1:
        # Emission parity is *ordered* (canonical rank order within each
        # batch); retraction parity is per-batch set equality (scores
        # included).
        assert ranked_emits(delta_events) == ranked_emits(replay_events)
        assert ranked_retracts(delta_events) == ranked_retracts(replay_events)
    else:
        # Multi-op batches may pass through intermediate states (see the
        # unranked test); the net standing (result, score) sets still agree.
        def standing(events):
            live = {}
            for e in events:
                if not isinstance(e, ResultEvent):
                    continue
                key = _key(e.tuple_set)
                if e.kind == "retract":
                    live.pop(key, None)
                else:
                    live[key] = e.score
            return set(live.items())

        assert standing(delta_events) == standing(replay_events)


class TestMaintainerMutationApi:
    def _maintainer(self):
        workload = streaming_star_workload(
            spokes=3, base_tuples=4, arrivals=4, seed=2
        )
        maintainer = StreamingFullDisjunction(workload.database)
        maintainer.prime()
        return workload, maintainer

    def test_open_cursors_observe_retractions_in_stream_order(self):
        workload, maintainer = self._maintainer()
        cursor = maintainer.session(name="watcher")
        base = cursor.drain()
        victim = next(iter(workload.database.relations[1]))
        record = maintainer.remove([Removal(victim.relation_name, victim.label)])
        events = cursor.drain()
        retractions = [e for e in events if isinstance(e, Retraction)]
        assert len(retractions) == record["results_retracted"] > 0
        assert all(victim in r.tuple_set for r in retractions)
        # Retractions precede the re-derived results in the stream.
        first_emit = next(
            (i for i, e in enumerate(events) if not isinstance(e, Retraction)),
            len(events),
        )
        assert all(
            isinstance(e, Retraction) for e in events[:first_emit]
        )
        assert len(base) > len(maintainer.results) - record["results_emitted"]

    def test_duplicate_removal_in_one_batch_raises_before_mutating(self):
        workload, maintainer = self._maintainer()
        victim = next(iter(workload.database.relations[0]))
        removal = Removal(victim.relation_name, victim.label)
        with pytest.raises(ValueError, match="duplicate removal"):
            maintainer.remove([removal, removal])
        assert workload.database.epoch == 0

    def test_unknown_removal_target_is_atomic(self):
        workload, maintainer = self._maintainer()
        victim = next(iter(workload.database.relations[0]))
        from repro.relational.errors import RelationError

        with pytest.raises(RelationError):
            maintainer.remove(
                [Removal(victim.relation_name, victim.label),
                 Removal(victim.relation_name, "nope")]
            )
        assert workload.database.epoch == 0
        assert victim in workload.database.relation(victim.relation_name).tuples

    def test_noop_updates_emit_nothing(self):
        workload, maintainer = self._maintainer()
        t = next(iter(workload.database.relations[0]))
        record = maintainer.update([Update(t.relation_name, t.label, t.values)])
        assert record["results_emitted"] == 0
        assert record["results_retracted"] == 0
        assert workload.database.epoch == 0

    def test_apply_dispatches_mixed_batches_in_order(self):
        workload, maintainer = self._maintainer()
        arrival = workload.arrivals[0]
        t = next(iter(workload.database.relations[2]))
        record = maintainer.apply(
            [
                Arrival(*arrival),
                Removal(t.relation_name, t.label),
            ]
        )
        assert record["arrivals"] == 1 and record["removals"] == 1
        net = {_key(ts) for ts in maintainer.results}
        fresh = {
            _key(ts)
            for ts in full_disjunction_sets(workload.database)
        }
        assert fresh <= net
