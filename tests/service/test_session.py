"""Resumable query sessions: pause/resume equivalence for all four engines.

The satellite guarantee: a :class:`~repro.service.session.QuerySession`
paused and resumed at *arbitrary* points emits the exact sequence a fresh
serial run emits, for every engine.  Randomized chunk schedules (seeded) cut
the stream at adversarial places; the log must never recompute, reorder or
drop a result.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approx import ApproxSemantics, approx_full_disjunction_sets
from repro.core.approx_join import ExactMatchSimilarity, MinJoin
from repro.core.full_disjunction import full_disjunction_sets
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.service.session import (
    ENGINES,
    QuerySession,
    ResultLog,
    StaleResultLog,
    open_session,
)
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database


def _ranking():
    return MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 13))


def _join():
    return MinJoin(ExactMatchSimilarity())


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
    )
    yield "star", star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=11)
    for seed in (0, 1):
        yield f"random-{seed}", random_database(
            relations=3,
            attributes=5,
            arity=3,
            tuples_per_relation=4,
            domain_size=2,
            null_rate=0.25,
            seed=seed,
        )


WORKLOADS = list(_workloads())
WORKLOAD_IDS = [name for name, _ in WORKLOADS]


def _serial_reference(engine, database):
    """The fresh serial run the paused/resumed session must reproduce."""
    if engine == "fd":
        return list(full_disjunction_sets(database, use_index=True))
    if engine == "priority":
        return list(priority_incremental_fd(database, _ranking(), use_index=True))
    if engine == "approx":
        return list(
            approx_full_disjunction_sets(database, _join(), 0.6, use_index=True)
        )
    return list(
        priority_incremental_fd(
            database, _ranking(), use_index=True, semantics=ApproxSemantics(_join(), 0.6)
        )
    )


def _open(engine, database):
    options = {"use_index": True}
    if engine in ("priority", "ranked_approx"):
        options["ranking"] = _ranking()
    if engine in ("approx", "ranked_approx"):
        options["join_function"] = _join()
        options["threshold"] = 0.6
    return open_session(database, engine, **options)


def _as_comparable(item):
    if isinstance(item, tuple):
        tuple_set, score = item
        return (tuple_set.labels(), score)
    return item.labels()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
def test_random_pause_resume_matches_fresh_serial_run(engine, name, database):
    """The satellite criterion: arbitrary chunking never changes the stream."""
    reference = [_as_comparable(item) for item in _serial_reference(engine, database)]
    for seed in range(3):
        rng = random.Random((hash((engine, name)) & 0xFFFF) * 100 + seed)
        session = _open(engine, database)
        received = []
        while True:
            k = rng.choice([0, 1, 1, 2, 3, 5, 8])
            batch = session.next(k)
            received.extend(_as_comparable(item) for item in batch)
            if k > 0 and not batch:
                break
        assert received == reference, (
            f"engine {engine} on {name} diverged under chunk schedule {seed}"
        )
        assert session.exhausted
        session.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_peek_does_not_consume(engine):
    database = tourist_database()
    session = _open(engine, database)
    first = session.peek()
    assert first is not None
    assert _as_comparable(session.next(1)[0]) == _as_comparable(first)
    session.close()


def test_session_next_is_incremental_not_recompute():
    """Pulling k answers must not run the engine to completion."""
    database = star_database(spokes=4, tuples_per_relation=5, hub_domain=2, seed=0)
    session = open_session(database, "fd", use_index=True)
    session.next(3)
    assert session.log.pulled == 3
    assert not session.log.complete
    session.close()


def test_fork_replays_the_shared_prefix_without_recompute():
    database = tourist_database()
    session = open_session(database, "fd", use_index=True)
    first_four = session.next(4)
    fork = session.fork()
    pulled_before = session.log.pulled
    assert fork.next(4) == first_four  # same objects, no new pulls
    assert session.log.pulled == pulled_before
    # The fork continues past the shared prefix by extending the same log.
    rest = fork.drain()
    assert session.next(10) == rest
    session.close()


def test_close_releases_the_owned_log_and_forbids_use():
    database = tourist_database()
    session = open_session(database, "fd")
    session.next(1)
    session.close()
    assert session.closed
    assert session.log.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.next(1)
    # Closing twice is fine.
    session.close()


def test_forked_session_close_does_not_close_the_shared_log():
    database = tourist_database()
    session = open_session(database, "fd")
    fork = session.fork()
    fork.close()
    assert not session.log.closed
    assert session.next(1)
    session.close()


def test_unknown_engine_is_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        open_session(tourist_database(), "mystery")


def test_priority_engine_requires_a_ranking():
    with pytest.raises(ValueError, match="ranking"):
        open_session(tourist_database(), "priority")


def test_negative_k_is_rejected():
    session = open_session(tourist_database(), "fd")
    with pytest.raises(ValueError, match="non-negative"):
        session.next(-1)
    session.close()


def test_statistics_accumulate_on_the_shared_log():
    database = tourist_database()
    session = open_session(database, "fd", use_index=True)
    session.drain()
    assert session.statistics is not None
    assert session.statistics.results > 0
    session.close()


class TestResultLog:
    def test_push_mode_log_is_live_until_finished(self):
        log = ResultLog()
        assert not log.complete
        log.append("a")
        cursor = QuerySession(log, owns_log=False)
        assert cursor.next(5) == ["a"]
        assert not cursor.exhausted  # more could still arrive
        log.finish()
        assert cursor.exhausted

    def test_append_after_finish_is_rejected(self):
        log = ResultLog()
        log.finish()
        with pytest.raises(RuntimeError, match="closed"):
            log.append("late")

    def test_append_with_active_source_is_rejected(self):
        log = ResultLog(source=iter("abc"))
        with pytest.raises(RuntimeError, match="active"):
            log.append("x")

    def test_exhaust_source_drains_and_completes(self):
        log = ResultLog(source=iter(range(5)))
        assert log.exhaust_source() == 5
        assert log.complete
        assert log.results == [0, 1, 2, 3, 4]

    def test_live_log_survives_source_exhaustion(self):
        log = ResultLog(source=iter(range(3)), live=True)
        log.exhaust_source()
        assert not log.complete  # a producer may still append
        log.append(3)
        assert log.results == [0, 1, 2, 3]

    def test_invalidation_keeps_the_prefix_but_refuses_the_tail(self):
        """Invalidation must never masquerade as graceful exhaustion."""
        log = ResultLog(source=iter(range(10)))
        cursor = QuerySession(log, owns_log=False)
        assert cursor.next(3) == [0, 1, 2]
        log.close("the computation was abandoned")
        assert not log.complete  # truncated is not exhausted
        assert cursor.next(0) == []  # the prefix stays readable
        replay = QuerySession(log, owns_log=False)
        assert replay.next(3) == [0, 1, 2]
        with pytest.raises(StaleResultLog, match="abandoned"):
            cursor.next(1)
        with pytest.raises(StaleResultLog):
            cursor.peek()
        assert not cursor.exhausted

    def test_closing_a_completed_log_is_not_an_invalidation(self):
        log = ResultLog(source=iter(range(2)))
        cursor = QuerySession(log, owns_log=False)
        assert cursor.next(5) == [0, 1]
        log.close()
        assert log.complete
        assert cursor.next(1) == []  # graceful exhaustion, no error
        assert cursor.exhausted
