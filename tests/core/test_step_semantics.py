"""The one ``GetNextResult`` under both join semantics.

``get_next_result`` shares Lines 1 and 10–19 between the exact step (Fig. 2)
and the starred step of Fig. 6; its ``semantics`` argument supplies Lines
2–6, Lines 7–9 and the Line 14 test.  Two properties pin the shared loop
down.  Under :class:`~repro.core.approx.ApproxSemantics` the approximate
driver returns the brute-force ``AFD(R, A, τ)`` oracle's answer set.  And
with :class:`~repro.core.approx_join.ExactJoin` (``A(T) = 1`` exactly when
``JCC(T)``) at τ = 1, the starred step replays the exact one: the same
results in the same order, the same ``Incomplete`` list after every step
and the same step counters.  The drivers above the step
are one loop each, so the same holds for whole ``incremental_fd`` passes and
for the ranked loop of ``priority_incremental_fd``: every ``FDStatistics``
field agrees.  And every driver hands each of its steps its own semantics,
and a step swap that records them leaves the answers unchanged.
"""

from __future__ import annotations

import zlib

import pytest

from repro.baselines.naive import naive_approx_full_disjunction
from repro.core.approx import ApproxSemantics, approx_full_disjunction
from repro.core.approx_join import ExactJoin, ExactMatchSimilarity, MinJoin, SimilarityFunction
from repro.core.full_disjunction import first_k, full_disjunction
from repro.core.incremental import EXACT, FDStatistics, get_next_result, incremental_fd
from repro.core.priority import priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.workloads.generators import chain_database, random_database, star_database
from repro.workloads.tourist import tourist_database

from tests.conftest import STORES, on_store, reuse_initialization
from tests.core.reference_step import swapped_step

class GradedSimilarity(SimilarityFunction):
    """Join-consistent pairs score 1; any other pair a fixed grade below 1.

    The grade is a hash of the pair's labels, so the thresholds below keep
    some inconsistent pairs and drop others.
    """

    GRADES = (0.0, 0.45, 0.55, 0.7, 0.9)

    def compute(self, first, second):
        if first.join_consistent_with(second):
            return 1.0
        key = f"{first.relation_name}.{first.label}|{second.relation_name}.{second.label}"
        return self.GRADES[zlib.crc32(key.encode()) % len(self.GRADES)]


AMIN = MinJoin(GradedSimilarity())
EXACT_JOIN = ApproxSemantics(ExactJoin(), 1.0)


def _workloads():
    yield "tourist", tourist_database()
    yield "chain", chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=5
    )
    yield "star", star_database(spokes=3, tuples_per_relation=3, hub_domain=2, seed=11)
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

with_workloads = pytest.mark.parametrize("name,database", WORKLOADS, ids=WORKLOAD_IDS)
with_stores = pytest.mark.parametrize("store", STORES)


def _under(semantics):
    """The shipped step under ``semantics``, whatever the driver passes."""

    def step(database, anchor, incomplete, complete, scanner, statistics, _):
        return get_next_result(
            database, anchor, incomplete, complete, scanner, statistics, semantics
        )

    return step


def _labelled(results):
    return [ts.labels() for ts in results]


def _steps(database, anchor):
    """Results, the ``Incomplete`` list after every step, and the counters."""
    statistics = FDStatistics()
    pools = []

    def after_step(iteration, result, incomplete, complete):
        pools.append([s.labels() for s in incomplete.as_list()])

    results = incremental_fd(
        database,
        anchor,
        statistics=statistics,
        on_iteration=after_step,
    )
    return _labelled(results), pools, statistics.as_dict()


@with_stores
@with_workloads
def test_approx_semantics_matches_the_oracle(name, database, store):
    for threshold in (0.5, 0.6, 0.8):
        expected = {
            ts.labels() for ts in naive_approx_full_disjunction(database, AMIN, threshold)
        }
        with on_store(store):
            produced = approx_full_disjunction(database, AMIN, threshold)
        assert {ts.labels() for ts in produced} == expected, threshold
        assert len(produced) == len(expected), threshold


@with_stores
@with_workloads
def test_exact_join_replays_the_exact_step(name, database, store):
    """Step by step: the starred Lines 2–9 and 14 make the exact decisions."""
    for anchor in database.relation_names:
        with on_store(store):
            with swapped_step(_under(EXACT_JOIN)) as steps:
                starred = _steps(database, anchor)
            assert len(steps) == len(starred[0]), anchor
            assert starred == _steps(database, anchor), anchor


@with_stores
@with_workloads
def test_exact_join_approx_driver_is_the_exact_driver(name, database, store):
    """Every ``ApproxIncrementalFD`` pass, and the whole ``AFD``, in order,
    with every ``FDStatistics`` field."""
    with on_store(store):
        for anchor in database.relation_names:
            exact, starred = FDStatistics(), FDStatistics()
            expected = _labelled(incremental_fd(database, anchor, statistics=exact))
            produced = _labelled(
                incremental_fd(database, anchor, statistics=starred, semantics=EXACT_JOIN)
            )
            assert produced == expected, anchor
            assert starred.as_dict() == exact.as_dict(), anchor
        assert _labelled(
            approx_full_disjunction(database, ExactJoin(), 1.0)
        ) == _labelled(full_disjunction(database))


RANKED_WORKLOADS = [(name, database) for name, database in WORKLOADS if name in ("tourist", "star")]


@pytest.mark.parametrize(
    "name,database", RANKED_WORKLOADS, ids=[name for name, _ in RANKED_WORKLOADS]
)
def test_exact_join_ranked_driver_is_the_exact_ranked_driver(name, database):
    """The Fig. 3 loop under ``ExactJoin`` at τ = 1: the exact ranked stream,
    scores and order included, with every ``FDStatistics`` field."""
    ranking = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 7))
    runs = []
    for semantics in (None, EXACT_JOIN):
        statistics = FDStatistics()
        options = {} if semantics is None else {"semantics": semantics}
        stream = [
            (ts.labels(), score)
            for ts, score in priority_incremental_fd(
                database, ranking, statistics=statistics, **options
            )
        ]
        runs.append((stream, statistics.as_dict()))
    assert runs[1] == runs[0]


APPROX = ApproxSemantics(MinJoin(ExactMatchSimilarity()), 0.6)
RANKING = MaxRanking(lambda t: float(sum(ord(ch) for ch in t.label) % 7))

#: Every driver, with the semantics its steps carry.  A run returns the
#: driver's output: tuple sets, or ``(tuple set, score)`` pairs.
DRIVERS = {
    "fd": (full_disjunction, EXACT),
    "fd-reuse": (
        lambda db: list(
            reuse_initialization().reusing_full_disjunction(
                db, "previous-results"
            )
        ),
        EXACT,
    ),
    "first-k": (lambda db: first_k(db, 3), EXACT),
    "pass": (lambda db: list(incremental_fd(db, db.relation_names[-1])), EXACT),
    "priority": (lambda db: list(priority_incremental_fd(db, RANKING)), EXACT),
    "approx": (
        lambda db: approx_full_disjunction(db, APPROX.join_function, APPROX.threshold),
        APPROX,
    ),
    "approx-pass": (
        lambda db: list(
            incremental_fd(db, db.relation_names[-1], semantics=APPROX)
        ),
        APPROX,
    ),
    "ranked-approx": (
        lambda db: list(
            priority_incremental_fd(db, RANKING, semantics=APPROX)
        ),
        APPROX,
    ),
}
with_drivers = pytest.mark.parametrize("driver", sorted(DRIVERS))


def _tuple_sets(output):
    return [item[0] if isinstance(item, tuple) else item for item in output]


def _comparable(output):
    """Labels in output order, with the scores of a ranked driver."""
    return [
        (item[0].labels(), item[1]) if isinstance(item, tuple) else item.labels()
        for item in output
    ]


@with_workloads
@with_drivers
def test_each_driver_steps_carry_its_semantics(driver, name, database):
    """A recorder swapped in for the step sees every step of the driver,
    each with the driver's semantics, and the answers and their order are
    those of the unrecorded run."""
    run, semantics = DRIVERS[driver]
    with swapped_step(get_next_result) as steps:
        recorded = _comparable(run(database))
    assert recorded == _comparable(run(database))
    assert steps
    assert {type(carried) for _, carried in steps} == {type(semantics)}


@with_drivers
def test_each_driver_returns_sets_of_the_database_catalog(driver):
    database = chain_database(
        relations=3, tuples_per_relation=4, domain_size=3, null_rate=0.2, seed=9
    )
    catalog = database.catalog()
    results = _tuple_sets(DRIVERS[driver][0](database))
    assert results
    assert all(tuple_set.catalog is catalog for tuple_set in results)


def _without_tuples(how):
    """The tourist relations, with no tuples or with every tuple removed."""
    database = tourist_database()
    if how == "all removed":
        database.catalog()
        for t in list(database.tuples()):
            database.remove_tuple(t.relation_name, t.label)
        return database
    return Database([Relation(r.name, r.schema.attributes) for r in database.relations])


@pytest.mark.parametrize("how", ["no tuples", "all removed"])
@with_drivers
def test_each_driver_yields_nothing_without_live_tuples(driver, how):
    """No step runs, and nothing comes out, when no relation holds a live
    tuple: tombstoned rows seed nothing."""
    database = _without_tuples(how)
    assert not list(database.tuples())
    with swapped_step(get_next_result) as steps:
        assert DRIVERS[driver][0](database) == []
    assert steps == []
