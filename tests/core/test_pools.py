"""Tests for the Complete store and the Incomplete pools."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import store
from repro.core.pools import ListIncompletePool, PriorityIncompletePool
from repro.core.ranking import MaxRanking
from repro.core.tupleset import TupleSet
from repro.workloads.tourist import tourist_database, tourist_importance

from tests.core.reference_store import CompleteStore


def by_label(db, *labels):
    return TupleSet(db.tuple_by_label(label) for label in labels)


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


class _LiteralList:
    """The paper's linked list, literally: a Python list searched by value."""

    def __init__(self, extraction):
        self.extraction = extraction
        self.items = []
        self.cursor = 0
        self.buckets = {}

    def _anchor(self, tuple_set):
        return tuple_set.tuple_from("Climates")

    def add(self, tuple_set):
        if tuple_set in self.items:
            return
        if self.extraction == "paper":
            self.items.insert(self.cursor, tuple_set)
            self.cursor += 1
        else:
            self.items.append(tuple_set)
        self.buckets.setdefault(self._anchor(tuple_set), []).append(tuple_set)

    def pop(self):
        tuple_set = self.items.pop() if self.extraction == "lifo" else self.items.pop(0)
        self.buckets[self._anchor(tuple_set)].remove(tuple_set)
        self.cursor = 0
        return tuple_set

    def replace(self, old, new):
        position = self.items.index(old)
        self.buckets[self._anchor(old)].remove(old)
        if new in self.items and new != old:
            del self.items[position]
            if position < self.cursor:
                self.cursor -= 1
            return
        self.items[position] = new
        self.buckets.setdefault(self._anchor(new), []).append(new)


def _pool_universe():
    """Sets holding one Climates tuple (the anchor) and at most one other."""
    database = tourist_database()
    # Few sets, so unions often collide with a queued member.
    anchors = list(database.relation("Climates"))[:2]
    others = [database.tuple_by_label(label) for label in ("a1", "a2", "s1")]
    return [
        TupleSet([anchor] + extra)
        for anchor in anchors
        for extra in [[]] + [[t] for t in others]
    ]


POOL_UNIVERSE = _pool_universe()
POOL_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "pop", "replace", "probe"]),
        st.integers(0, len(POOL_UNIVERSE) - 1),
        st.integers(0, len(POOL_UNIVERSE) - 1),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    operations=POOL_OPERATIONS,
    extraction=st.sampled_from(ListIncompletePool.EXTRACTION_ORDERS),
    use_index=st.booleans(),
)
def test_slot_pool_keeps_the_literal_list_order(operations, extraction, use_index):
    """O(1) slots reproduce the searched list position for position."""
    pool = store.ListIncompletePool("Climates", use_index=use_index, extraction=extraction)
    model = _LiteralList(extraction)
    for operation, first, second in operations:
        if operation == "add":
            pool.add(POOL_UNIVERSE[first])
            model.add(POOL_UNIVERSE[first])
        elif operation == "pop" and model.items:
            assert pool.pop() == model.pop()
        elif operation == "replace" and model.items:
            old = model.items[first % len(model.items)]
            # A merge keeps the anchor: the union holds old's Climates tuple.
            new = old.union(TupleSet(t for t in POOL_UNIVERSE[second] if t.relation_name != "Climates"))
            pool.replace(old, new)
            model.replace(old, new)
        elif operation == "probe":
            probe = POOL_UNIVERSE[first]
            expected = (
                model.buckets.get(model._anchor(probe), []) if use_index else model.items
            )
            assert pool.candidates(probe) == expected
        assert pool.as_list() == model.items
        assert len(pool) == len(model.items)
        assert bool(pool) == bool(model.items)


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
    model = _LiteralList(extraction)
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
