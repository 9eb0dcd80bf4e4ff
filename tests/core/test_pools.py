"""Tests for the Complete store and the Incomplete pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import store
from repro.core.pools import ListIncompletePool, PriorityIncompletePool
from repro.core.ranking import MaxRanking
from repro.core.tupleset import TupleSet
from repro.workloads.tourist import tourist_database, tourist_importance

from tests.core.reference_store import CompleteStore, IncompleteList


def by_label(db, *labels):
    return TupleSet((db.tuple_by_label(label) for label in labels), db.catalog())


class TestCompleteStore:
    def test_add_and_membership(self, tourist_db):
        store = CompleteStore("Climates")
        ts = by_label(tourist_db, "c1", "a1")
        assert ts not in store
        store.add(ts)
        assert ts in store and len(store) == 1
        assert store.as_list() == [ts]

    def test_contains_superset_linear(self, tourist_db):
        store = CompleteStore("Climates")
        store.add(by_label(tourist_db, "c1", "a2", "s1"))
        assert store.contains_superset(by_label(tourist_db, "c1", "a2"))
        assert store.contains_superset(by_label(tourist_db, "c1", "s1"))
        assert not store.contains_superset(by_label(tourist_db, "c1", "s2"))

    def test_contains_superset_indexed_with_explicit_anchor(self, tourist_db):
        store = CompleteStore(anchor_relation=None, use_index=True)
        result = by_label(tourist_db, "c1", "a2", "s1")
        store.add(result)
        probe = by_label(tourist_db, "c1", "a2")
        anchor = tourist_db.tuple_by_label("c1")
        assert store.contains_superset(probe, anchor=anchor)
        other_anchor = tourist_db.tuple_by_label("c2")
        assert not store.contains_superset(by_label(tourist_db, "c2"), anchor=other_anchor)

    def test_indexed_probe_scans_fewer_sets(self, tourist_db):
        linear = CompleteStore("Climates", use_index=False)
        indexed = CompleteStore("Climates", use_index=True)
        for labels in (("c1", "a1"), ("c1", "a2", "s1"), ("c2", "s3"), ("c2", "s4")):
            linear.add(by_label(tourist_db, *labels))
            indexed.add(by_label(tourist_db, *labels))
        probe = by_label(tourist_db, "c3")
        anchor = tourist_db.tuple_by_label("c3")
        linear.contains_superset(probe, anchor=anchor)
        indexed.contains_superset(probe, anchor=anchor)
        assert indexed.statistics.sets_scanned < linear.statistics.sets_scanned

    def test_indexed_probe_falls_back_to_full_scan_without_anchor(self, tourist_db):
        store = CompleteStore(anchor_relation=None, use_index=True)
        store.add(by_label(tourist_db, "c1", "a1"))
        # No anchor tuple available: the probe still works (full scan).
        assert store.contains_superset(by_label(tourist_db, "a1"))


class TestListIncompletePool:
    def test_add_pop_and_membership(self, tourist_db):
        pool = ListIncompletePool("Climates")
        first = by_label(tourist_db, "c1")
        second = by_label(tourist_db, "c2")
        pool.add(first)
        pool.add(second)
        assert len(pool) == 2 and bool(pool)
        assert first in pool
        assert pool.pop() == first
        assert first not in pool
        assert pool.pop() == second
        assert not pool

    def test_pop_empty_raises(self, tourist_db):
        with pytest.raises(IndexError):
            ListIncompletePool("Climates").pop()

    def test_duplicate_add_is_ignored(self, tourist_db):
        pool = ListIncompletePool("Climates")
        ts = by_label(tourist_db, "c1")
        pool.add(ts)
        pool.add(ts)
        assert len(pool) == 1

    def test_paper_extraction_order(self, tourist_db):
        """New candidates are processed before older entries, as in Table 3."""
        pool = ListIncompletePool("Climates", extraction="paper")
        a = by_label(tourist_db, "c1")
        b = by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == a
        fresh1 = by_label(tourist_db, "c1", "a2")
        fresh2 = by_label(tourist_db, "c1", "s2")
        pool.add(fresh1)
        pool.add(fresh2)
        assert pool.as_list() == [fresh1, fresh2, b]
        assert pool.pop() == fresh1

    def test_fifo_extraction_order(self, tourist_db):
        pool = ListIncompletePool("Climates", extraction="fifo")
        a, b = by_label(tourist_db, "c1"), by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == a
        c = by_label(tourist_db, "c1", "a2")
        pool.add(c)
        assert pool.as_list() == [b, c]

    def test_lifo_extraction_order(self, tourist_db):
        pool = ListIncompletePool("Climates", extraction="lifo")
        a, b = by_label(tourist_db, "c1"), by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        assert pool.pop() == b

    def test_invalid_extraction_order(self):
        with pytest.raises(ValueError):
            ListIncompletePool("Climates", extraction="random")

    def test_replace_keeps_position(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2")
        pool.add(a)
        pool.add(b)
        merged = by_label(tourist_db, "c1", "a2", "s1")
        pool.replace(a, merged)
        assert pool.as_list() == [merged, b]

    def test_replace_with_existing_member_just_drops_old(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c1", "a2", "s1")
        pool.add(a)
        pool.add(b)
        pool.replace(a, b)
        assert pool.as_list() == [b]

    def test_replace_of_absent_member_raises(self, tourist_db):
        pool = ListIncompletePool("Climates")
        with pytest.raises(KeyError):
            pool.replace(by_label(tourist_db, "c1"), by_label(tourist_db, "c2"))

    def test_candidates_with_index_filters_by_anchor_tuple(self, tourist_db):
        pool = ListIncompletePool("Climates", use_index=True)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        probe = by_label(tourist_db, "c1", "s2")
        assert pool.candidates(probe) == [a]
        probe2 = by_label(tourist_db, "c3")
        assert pool.candidates(probe2) == []

    def test_candidates_without_index_returns_all(self, tourist_db):
        pool = ListIncompletePool("Climates", use_index=False)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        assert set(pool.candidates(by_label(tourist_db, "c3"))) == {a, b}

    def test_statistics_are_tracked(self, tourist_db):
        pool = ListIncompletePool("Climates")
        a = by_label(tourist_db, "c1")
        pool.add(a)
        pool.candidates(a)
        pool.pop()
        stats = pool.statistics.as_dict()
        assert stats["additions"] == 1
        assert stats["removals"] == 1
        assert stats["sets_scanned"] == 1
        assert stats["peak_size"] == 1


def _pool_universe():
    """Sets holding one Climates tuple (the anchor) and at most one other,
    and the catalog they and the seeds are interned in."""
    database = tourist_database()
    catalog = database.catalog()
    # Few sets, so unions often collide with a queued member.
    anchors = list(database.relation("Climates"))
    others = [database.tuple_by_label(label) for label in ("a1", "a2", "s1")]
    members = [[anchor] + extra for anchor in anchors for extra in [[]] + [[t] for t in others]]
    return catalog, [TupleSet(tuples, catalog=catalog) for tuples in members], anchors + others


POOL_CATALOG, POOL_UNIVERSE, POOL_TUPLES = _pool_universe()
POOL_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "add", "pop", "replace", "requeue", "probe", "settle", "discard"]
        ),
        st.integers(0, len(POOL_UNIVERSE) - 1),
        st.integers(0, len(POOL_UNIVERSE) - 1),
    ),
    max_size=60,
)


def _observed(pool, universe):
    """Everything a pool shows without popping."""
    return (
        pool.as_list(),
        len(pool),
        bool(pool),
        [tuple_set in pool for tuple_set in universe],
        pool.anchor_buckets(),
        pool.waiting_anchors(POOL_CATALOG),
        pool.statistics.as_dict(),
    )


@settings(max_examples=300, deadline=None)
@given(
    seeded=st.lists(st.booleans(), min_size=3, max_size=3),
    operations=POOL_OPERATIONS,
    extraction=st.sampled_from(ListIncompletePool.EXTRACTION_ORDERS),
    use_index=st.booleans(),
)
def test_slot_pool_keeps_the_literal_list_order(seeded, operations, extraction, use_index):
    """O(1) slots reproduce the searched list position for position, and a
    "paper" pool seeded by mask shows, after every operation, what a pool
    seeded by adding each singleton in gid order shows: list, size,
    membership, buckets, anchor masks and counters."""
    universe = POOL_UNIVERSE
    climates = POOL_TUPLES[:3]
    pool = store.ListIncompletePool("Climates", use_index=use_index, extraction=extraction)
    eager = ListIncompletePool("Climates", use_index=use_index, extraction=extraction)
    model = IncompleteList("Climates", extraction)
    # The first operation: seed by mask ("paper" only; the other orders add
    # each seed), then pop, as IncrementalFD does.
    seeds = [t for t, chosen in zip(climates, seeded) if chosen]
    if extraction == "paper":
        pool.seed(POOL_CATALOG.mask_of(seeds), POOL_CATALOG)
    for t in seeds:
        if extraction != "paper":
            pool.add(TupleSet.singleton(t, catalog=POOL_CATALOG))
        eager.add(TupleSet.singleton(t, catalog=POOL_CATALOG))
        model.add(TupleSet.singleton(t, catalog=POOL_CATALOG))
    if seeds:
        operations = [("pop", 0, 0)] + operations
    for operation, first, second in operations:
        if operation == "add":
            for container in (pool, eager, model):
                container.add(universe[first])
        elif operation == "pop" and model.items:
            expected = model.pop()
            assert pool.pop() == expected and eager.pop() == expected
        elif operation in ("replace", "requeue") and model.items:
            old = model.items[first % len(model.items)]
            # The step replaces what its Line 14 probe handed it.
            expected = model.buckets[model._anchor(old)] if use_index else model.items
            assert pool.candidates(old) == expected == eager.candidates(old)
            new = old
            if operation == "replace":
                # A merge keeps the anchor: the union holds old's Climates tuple.
                extra = [t for t in universe[second] if t.relation_name != "Climates"]
                new = old.union(TupleSet(extra, catalog=old.catalog))
                pool.replace(old, new)
                eager.replace(old, new)
            else:
                pool.requeue(old, model._anchor(old))
                eager.requeue(old, model._anchor(old))
            model.replace(old, new)
        elif operation == "probe":
            probe = universe[first]
            expected = (
                model.buckets.get(model._anchor(probe), []) if use_index else model.items
            )
            assert pool.candidates(probe) == expected == eager.candidates(probe)
        elif operation == "settle" and eager.waiting_anchors(POOL_CATALOG) is not None:
            once, twice = eager.waiting_anchors(POOL_CATALOG)
            anchors = once & POOL_CATALOG.mask_of(
                t for bit, t in enumerate(climates) if (first >> bit) & 1
            )
            pool.requeue_singletons(anchors, anchors & twice, POOL_CATALOG)
            eager.requeue_singletons(anchors, anchors & twice, POOL_CATALOG)
            model.settle(POOL_CATALOG.tuples_of_mask(anchors))
        elif operation == "discard":
            dead = {POOL_TUPLES[first % len(POOL_TUPLES)]}
            evicted = model.discard(dead)
            assert pool.discard_containing(dead) == evicted == eager.discard_containing(dead)
        assert pool.as_list() == model.items
        assert len(pool) == len(model.items)
        assert bool(pool) == bool(model.items)
        assert _observed(pool, universe) == _observed(eager, universe)


def _seeded_pair(database, use_index=True):
    """A pool seeded by mask with every Climates tuple, and its eager twin."""
    catalog = database.catalog()
    climates = list(database.relation("Climates"))
    pool = ListIncompletePool("Climates", use_index=use_index)
    pool.seed(catalog.mask_of(climates), catalog)
    eager = ListIncompletePool("Climates", use_index=use_index)
    for t in climates:
        eager.add(TupleSet.singleton(t, catalog=catalog))
    return catalog, pool, eager


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_the_seed_block_sits_after_every_later_insert(use_index):
    """Where a "paper" list that added each seed puts them once it popped."""
    database = tourist_database()
    catalog, pool, eager = _seeded_pair(database, use_index)
    first, second = (
        TupleSet.of(database.tuple_by_label(c), database.tuple_by_label(a), catalog=catalog)
        for c, a in (("c2", "a2"), ("c3", "a3"))
    )
    popped = []
    for step in ["pop", first, second, "pop", "pop"]:
        for container in (pool, eager):
            if step == "pop":
                popped.append(container.pop())
            else:
                container.add(step)
        assert pool.as_list() == eager.as_list()
    assert popped[0::2] == popped[1::2]
    assert popped[2::2] == [first, second]


@pytest.mark.parametrize("extraction", ["fifo", "lifo"])
def test_only_an_empty_paper_pool_takes_a_seed_block(extraction, tourist_db):
    catalog = tourist_db.catalog()
    seeds = catalog.mask_of(tourist_db.relation("Climates"))
    with pytest.raises(ValueError):
        ListIncompletePool("Climates", extraction=extraction).seed(seeds, catalog)
    pool = ListIncompletePool("Climates")
    pool.add(TupleSet.of(tourist_db.tuple_by_label("c1"), catalog=catalog))
    with pytest.raises(ValueError):
        pool.seed(seeds, catalog)


@pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
def test_a_dead_pending_seed_trips_the_tombstone_check_and_is_evicted(use_index):
    database = tourist_database()
    catalog, pool, eager = _seeded_pair(database, use_index)
    victim = database.tuple_by_label("c2")
    database.remove_tuple("Climates", "c2")
    assert database.catalog() is catalog and catalog.is_tombstoned(victim)
    assert pool.waiting_anchors(catalog) is None is eager.waiting_anchors(catalog)
    assert pool.discard_containing({victim}) == 1 == eager.discard_containing({victim})
    assert pool.as_list() == eager.as_list() and len(pool) == len(eager) == 2
    assert pool.statistics.as_dict() == eager.statistics.as_dict()


def test_a_pending_seed_keeps_its_incarnation_past_a_namesake():
    """c3 is updated away and back while its seed waits: the catalog's
    lookup then names the live namesake, but the seed is built at its own
    gid, as eager seeding built it, and an add for the namesake builds it
    first, so it leads the bucket."""
    database = tourist_database()
    catalog, pool, eager = _seeded_pair(database)
    assert pool.pop() == eager.pop()
    stale = catalog.id_of(database.tuple_by_label("c3"))
    values = list(database.tuple_by_label("c3").values)
    database.update_tuple("Climates", "c3", [values[0], "changed"])
    live = database.update_tuple("Climates", "c3", values)
    assert catalog.id_of(live) != stale
    fresh = TupleSet.of(live, database.tuple_by_label("a3"), catalog=catalog)
    for container in (pool, eager):
        container.add(fresh)
    assert pool.anchor_buckets() == eager.anchor_buckets()
    assert [s.id_mask for s in pool.anchor_buckets()[live]] == [1 << stale, fresh.id_mask]
    popped = [pool.pop() for _ in range(len(pool))]
    expected = [eager.pop() for _ in range(len(eager))]
    assert [s.id_mask for s in popped] == [s.id_mask for s in expected]
    assert 1 << stale in [s.id_mask for s in popped]


def _interned_universe():
    """:func:`_pool_universe`, interned in the tourist catalog."""
    database = tourist_database()
    catalog = database.catalog()
    anchors = list(database.relation("Climates"))[:2]
    others = [database.tuple_by_label(label) for label in ("a1", "a2", "s1")]
    sets = [
        TupleSet([anchor] + extra, catalog=catalog)
        for anchor in anchors
        for extra in [[]] + [[t] for t in others]
    ]
    return catalog, sets


MASK_CATALOG, MASK_UNIVERSE = _interned_universe()


@settings(max_examples=300, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["add", "add", "pop", "replace", "requeue"]),
            st.integers(0, len(MASK_UNIVERSE) - 1),
            st.integers(0, len(MASK_UNIVERSE) - 1),
        ),
        max_size=60,
    ),
    extraction=st.sampled_from(ListIncompletePool.EXTRACTION_ORDERS),
)
def test_anchor_masks_follow_the_buckets(operations, extraction):
    """``waiting_anchors`` names the anchors with one and with two or more
    waiting sets after every add, pop, growing replace and requeue."""
    pool = ListIncompletePool("Climates", use_index=True, extraction=extraction)
    model = IncompleteList("Climates", extraction)
    for operation, first, second in operations:
        if operation == "add":
            pool.add(MASK_UNIVERSE[first])
            model.add(MASK_UNIVERSE[first])
        elif operation == "pop" and model.items:
            assert pool.pop() == model.pop()
        elif operation in ("replace", "requeue") and model.items:
            old = model.items[first % len(model.items)]
            new = old
            if operation == "replace":
                extra = [t for t in MASK_UNIVERSE[second] if t.relation_name != "Climates"]
                new = old.union(TupleSet(extra, catalog=MASK_CATALOG))
            pool.replace(old, new)
            model.replace(old, new)
        sizes = {
            MASK_CATALOG.id_of(anchor): len(sets) for anchor, sets in model.buckets.items()
        }
        once = sum(1 << gid for gid, size in sizes.items() if size >= 1)
        twice = sum(1 << gid for gid, size in sizes.items() if size >= 2)
        assert pool.waiting_anchors(MASK_CATALOG) == (once, twice)
        assert pool.as_list() == model.items


class TestPriorityIncompletePool:
    @pytest.fixture
    def ranking(self):
        return MaxRanking(tourist_importance())

    def test_pop_returns_highest_ranked(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        low = by_label(tourist_db, "c1")       # imp 1
        high = by_label(tourist_db, "c3")      # imp 3
        middle = by_label(tourist_db, "c2")    # imp 2
        for ts in (low, high, middle):
            pool.add(ts)
        assert pool.peek() == high
        assert pool.peek_score() == 3.0
        assert pool.pop() == high
        assert pool.pop() == middle
        assert pool.pop() == low

    def test_peek_on_empty_pool(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        assert pool.peek() is None and pool.peek_score() is None
        with pytest.raises(IndexError):
            pool.pop()

    def test_replace_reranks(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        low = by_label(tourist_db, "c1")
        middle = by_label(tourist_db, "c2")
        pool.add(low)
        pool.add(middle)
        # Merging c1 with the 4-star hotel lifts it above c2.
        boosted = by_label(tourist_db, "c1", "a1")
        pool.replace(low, boosted)
        assert pool.pop() == boosted

    def test_duplicate_add_ignored(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        ts = by_label(tourist_db, "c1")
        pool.add(ts)
        pool.add(ts)
        assert len(pool) == 1

    def test_candidates_with_index(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking, use_index=True)
        a = by_label(tourist_db, "c1", "a2")
        b = by_label(tourist_db, "c2", "s3")
        pool.add(a)
        pool.add(b)
        assert pool.candidates(by_label(tourist_db, "c1")) == [a]

    def test_as_list_is_rank_ordered(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        for label in ("c1", "c2", "c3"):
            pool.add(by_label(tourist_db, label))
        ordered = pool.as_list()
        assert [ranking(ts) for ts in ordered] == [3.0, 2.0, 1.0]

    def test_replace_of_absent_member_raises(self, tourist_db, ranking):
        pool = PriorityIncompletePool("Climates", ranking)
        with pytest.raises(KeyError):
            pool.replace(by_label(tourist_db, "c1"), by_label(tourist_db, "c2"))

    @pytest.mark.parametrize("use_index", [False, True], ids=["plain", "indexed"])
    def test_requeue_calls_no_ranking_and_pushes_nothing(self, tourist_db, use_index):
        """``replace(S, S)`` moves S to the end of the member order and of
        its bucket; a re-push would only leave a dead heap entry behind,
        since S's older entry has the same rank and pops first."""
        calls = []

        def ranking(tuple_set):
            calls.append(tuple_set)
            return 1.0

        pool = PriorityIncompletePool("Climates", ranking, use_index=use_index)
        first, second, other = (
            by_label(tourist_db, *labels) for labels in (["c1"], ["c1", "a1"], ["c2"])
        )
        for tuple_set in (first, second, other):
            pool.add(tuple_set)
        calls.clear()
        heap = len(pool._heap)
        pool.requeue(first, tourist_db.tuple_by_label("c1"))
        pool.replace(second, second)
        assert calls == []
        assert len(pool._heap) == heap
        assert list(pool) == [other, first, second]
        assert pool.statistics.replacements == 2
        if use_index:
            assert pool.candidates(first) == [first, second]
        assert [pool.pop() for _ in range(3)] == [first, second, other]
        with pytest.raises(KeyError):
            pool.replace(first, first)
