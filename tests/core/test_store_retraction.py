"""Live-mask retraction: stores and pools forget dead tuples without rebuilds.

Both pools' ``discard_containing`` and the catalog-less, unindexed
``CompleteStore.retract_containing`` run one eviction sweep,
:func:`repro.core.pools.holding_dead`; the sweep tests below drive it
through all three, on batches either side of 64 sets.
"""

from __future__ import annotations

import random

import pytest

from repro.core.priority import PriorityState, priority_incremental_fd
from repro.core.ranking import MaxRanking
from repro.core.store import CompleteStore, ListIncompletePool, PriorityIncompletePool
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.workloads.generators import chain_database


def _database():
    database = Database()
    first = Relation("R1", ["A", "B"])
    second = Relation("R2", ["B", "C"])
    for row in range(3):
        first.add([f"a{row}", f"b{row}"])
        second.add([f"b{row}", f"c{row}"])
    database.add_relation(first)
    database.add_relation(second)
    return database


def _pairs(database):
    """The three joined {r1_i, r2_i} sets plus catalog handles."""
    catalog = database.catalog()
    first, second = database.relations
    sets = [
        TupleSet.of(a, b, catalog=catalog)
        for a, b in zip(first.tuples, second.tuples)
    ]
    return catalog, sets


@pytest.mark.parametrize("use_index", [False, True])
class TestCompleteStoreRetraction:
    def test_retracts_exactly_the_sets_containing_a_dead_tuple(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        for tuple_set in sets:
            store.add(tuple_set)
        victim = database.relation("R1").tuple_by_label("r2")
        database.remove_tuple("R1", "r2")
        retracted = store.retract_containing({victim}, catalog=catalog)
        assert retracted == [sets[1]]
        assert len(store) == 2
        assert sets[1] not in store
        assert sets[0] in store and sets[2] in store

    def test_retracted_sets_stop_subsuming(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        store.add(sets[0])
        member = sorted(sets[0])[0]
        probe = TupleSet.singleton(member, catalog=catalog)
        assert store.contains_superset(probe, anchor=member)
        dead = next(t for t in sets[0] if t is not member)
        database.remove_tuple(dead.relation_name, dead.label)
        store.retract_containing({dead}, catalog=catalog)
        assert not store.contains_superset(probe, anchor=member)
        answers = store.contains_superset_batch([probe], anchor=member)
        assert answers == [False]

    def test_surviving_buckets_are_cleaned(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        for tuple_set in sets:
            store.add(tuple_set)
        dead = database.relation("R2").tuple_by_label("r1")
        survivor = database.relation("R1").tuple_by_label("r1")
        database.remove_tuple("R2", "r1")
        store.retract_containing({dead}, catalog=catalog)
        # The surviving member tuple's bucket no longer serves the dead set.
        probe = TupleSet.singleton(survivor, catalog=catalog)
        assert not store.contains_superset(probe, anchor=survivor)

    def test_emission_order_and_dedup(self, use_index):
        database = _database()
        catalog, sets = _pairs(database)
        store = CompleteStore(anchor_relation=None, use_index=use_index)
        store.add(sets[1])
        store.add(sets[0])
        store.add(sets[1])  # a covered re-add, as the delta pass performs
        dead = {
            database.relation("R1").tuple_by_label("r1"),
            database.relation("R1").tuple_by_label("r2"),
        }
        for t in dead:
            database.remove_tuple(t.relation_name, t.label)
        retracted = store.retract_containing(dead, catalog=catalog)
        assert retracted == [sets[1], sets[0]]  # insertion order, deduplicated
        assert len(store) == 0


class TestPoolEviction:
    def test_list_pool_discards_members_containing_dead_tuples(self):
        database = _database()
        catalog, sets = _pairs(database)
        pool = ListIncompletePool("R1", use_index=True)
        for tuple_set in sets:
            pool.add(tuple_set)
        victim = database.relation("R2").tuple_by_label("r2")
        assert pool.discard_containing({victim}) == 1
        assert len(pool) == 2
        assert sets[1] not in pool
        assert pool.discard_containing({victim}) == 0
        # The index is clean: no candidate list still serves the victim.
        anchor = sets[1].tuple_from("R1")
        assert sets[1] not in pool.candidates(TupleSet.singleton(anchor, catalog=catalog))

    def test_priority_pool_discards_and_heap_skips(self):
        database = _database()
        catalog, sets = _pairs(database)
        ranking = MaxRanking(lambda t: float(ord(t.label[-1])))
        pool = PriorityIncompletePool("R1", ranking, use_index=True)
        for tuple_set in sets:
            pool.add(tuple_set)
        top = pool.peek()
        dead = next(iter(top))
        assert pool.discard_containing({dead}) == 1
        assert pool.peek() != top
        assert len(pool) == 2


class TestPriorityStateRetract:
    def test_retract_evicts_queues_and_complete(self):
        database = _database()
        database.catalog()
        ranking = MaxRanking(lambda t: 1.0)
        state = PriorityState(database, ranking, use_index=True)
        results = list(state.results())
        assert results
        victim = database.relation("R1").tuple_by_label("r1")
        database.remove_tuple("R1", "r1")
        retracted = state.retract([victim])
        assert all(victim in tuple_set for tuple_set in retracted)
        assert all(victim not in tuple_set for tuple_set in state.complete)
        for pool in state.pools:
            assert all(victim not in member for member in pool)

    def test_retracted_results_match_a_fresh_post_deletion_run(self):
        database = _database()
        database.catalog()
        ranking = MaxRanking(lambda t: float(ord(t.label[-1])))
        state = PriorityState(database, ranking, use_index=True)
        list(state.results())
        victim = database.relation("R2").tuple_by_label("r3")
        database.remove_tuple("R2", "r3")
        state.retract([victim])
        surviving = {ts.labels() for ts in state.complete}
        fresh = {
            ts.labels()
            for ts, _ in priority_incremental_fd(database, ranking, use_index=True)
        }
        # Survivors are exactly the fresh results that are not newly unblocked
        # (re-derivation is the maintainer's job, not the state's).
        assert surviving <= fresh
        assert all(victim.label not in labels for labels in surviving)


# --------------------------------------------------------------------- #
# the eviction sweep, through both pools and the store
# --------------------------------------------------------------------- #
#: Containers whose retraction runs the sweep.
SWEPT = ["list pool", "priority pool", "store"]

#: Batch sizes either side of 64 sets, where the retired NumPy sweep
#: stopped handing batches to the Python loop.
BATCHES = [12, 80]


def _sweep(kind, sets, dead):
    """Evict ``dead`` from a container of ``sets``: the evicted sets and the
    survivors, each in the container's own order, after checking both
    against a per-member scan of that order."""
    if kind == "store":
        container = CompleteStore(anchor_relation=None, use_index=False)
    elif kind == "list pool":
        container = ListIncompletePool("R1")
    else:
        container = PriorityIncompletePool("R1", MaxRanking(lambda t: float(len(t.label))))
    for tuple_set in sets:
        container.add(tuple_set)
    before = container.as_list()
    assert len(before) == len(sets)
    if kind == "store":
        evicted = container.retract_containing(dead)
    else:
        count = container.discard_containing(dead)
        evicted = [s for s in before if s not in container.as_list()]
        assert count == len(evicted)
    assert evicted == [s for s in before if any(t in dead for t in s.tuples)]
    assert container.as_list() == [s for s in before if s not in evicted]
    return evicted


def _distinct_jcc_sets(database, count, rng):
    """``count`` distinct random join-consistent connected sets, interned."""
    catalog = database.catalog()
    tuples = list(database.tuples())
    sets = {}
    for _ in range(50 * count):
        current = TupleSet.singleton(rng.choice(tuples), catalog)
        for t in rng.sample(tuples, len(tuples)):
            if rng.random() < 0.6 and current.can_absorb(t):
                current = current.with_tuple(t)
        sets[TupleSet(current.tuples, catalog=catalog)] = None
        if len(sets) == count:
            return list(sets)
    raise AssertionError(f"fewer than {count} distinct sets")


@pytest.mark.parametrize("kind", SWEPT)
@pytest.mark.parametrize("batch", BATCHES)
def test_retraction_sweeps_parity_under_mutations(kind, batch):
    """After each removal or update, the sweep evicts exactly the sets a
    per-member scan flags, and keeps the others in order."""
    database = chain_database(
        relations=5, tuples_per_relation=10, domain_size=3, null_rate=0.2, seed=9
    )
    catalog = database.catalog()
    all_tuples = list(database.tuples())
    rng = random.Random(61)
    sets = _distinct_jcc_sets(database, batch, rng)
    evictions = []
    for step in range(6):
        live = [t for t in database.tuples() if not catalog.is_tombstoned(t)]
        victim = rng.choice(live)
        if step % 2:
            values = [rng.choice([1, 2, 3]) for _ in victim.values]
            database.update_tuple(victim.relation_name, victim.label, values)
        else:
            database.remove_tuple(victim.relation_name, victim.label)
        dead = {t for t in all_tuples if catalog.is_tombstoned(t)}
        evictions.append(len(_sweep(kind, sets, dead)))
    assert 0 < evictions[-1] < batch


@pytest.mark.parametrize("kind", SWEPT)
@pytest.mark.parametrize("batch", BATCHES)
def test_batch_contains_dead_sees_equal_reincarnations(kind, batch):
    """An equal tuple appended after a tombstone must not hide the dead one.

    ``update_tuple`` back to the original values creates a *live* tuple
    equal to a tombstoned incarnation under a new gid; the sweep matches
    tuples by equality, so a set interned before the round trip, which holds
    the old gid, is evicted, and so is a set holding the live namesake.
    """
    database = chain_database(
        relations=4, tuples_per_relation=8, domain_size=3, null_rate=0.0, seed=2
    )
    catalog = database.catalog()
    target = next(iter(database.relations[0]))
    original_values = list(target.values)
    others = [
        s for s in _distinct_jcc_sets(database, batch + 20, random.Random(5))
        if target not in s.tuples
    ][: batch - 2]
    stale = TupleSet.singleton(target, catalog=catalog)
    database.update_tuple(target.relation_name, target.label, [2 for _ in original_values])
    database.update_tuple(target.relation_name, target.label, original_values)
    namesake = database.relation(target.relation_name).tuple_by_label(target.label)
    live = TupleSet.singleton(namesake, catalog=database.catalog())
    assert namesake == target and live.id_mask != stale.id_mask
    sets = others[: len(others) // 2] + [stale] + others[len(others) // 2 :] + [live]
    assert len(sets) == batch
    assert _sweep(kind, sets, {target}) == [stale, live] != []
