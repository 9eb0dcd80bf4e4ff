"""The paper's literal containers, kept as the oracles of the engine's.

:class:`CompleteStore` is the store the engine ran before
:class:`repro.core.store.CompleteStore` indexed its sets twice (anchor-tuple
buckets, then relation-set groups): a list of printed results, optionally
hashed by every member tuple (the Section 7 index), each probe testing the
sets of one bucket, or all of them, by ``issubset``.  The randomized
equivalence tests run it beside the indexed store, and the step accepts it
as ``complete``.  :class:`WalkedCompleteStore` walks the indexed store's
buckets and relation-set groups set by set: the oracle of the counters the
indexed store reports.  :class:`IncompleteList` is the paper's
``Incomplete`` linked list, a Python list searched by value: the oracle of
:class:`repro.core.pools.ListIncompletePool`.  None of them reads a catalog
to hold or probe a set, so they also hold the
:class:`~tests.core.reference_tupleset.ReferenceTupleSet` oracle's sets.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional

from repro.core.pools import PoolStatistics
from repro.core.tupleset import TupleSet
from repro.relational.tuples import Tuple


class CompleteStore:
    """The ``Complete`` list: results already printed.

    Parameters
    ----------
    anchor_relation:
        Name of the relation ``R_i`` whose member tuple keys the hash index.
        Only used when ``use_index`` is true.  In the priority algorithm the
        store is shared by all indexes; the superset probe then passes the
        anchor tuple explicitly.
    use_index:
        When true, stored sets are additionally hashed by *every* member
        tuple, and superset probes restricted to the bucket of the probe's
        anchor tuple (Section 7 optimization).
    """

    def __init__(self, anchor_relation: Optional[str] = None, use_index: bool = False):
        self._anchor_relation = anchor_relation
        self._use_index = use_index
        self._sets: List[TupleSet] = []
        self._members = set()
        self._buckets: Dict[Tuple, List[TupleSet]] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(self._sets)

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def add(self, tuple_set: TupleSet) -> None:
        """Store a printed result."""
        self._sets.append(tuple_set)
        self._members.add(tuple_set)
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._sets))
        if self._use_index:
            for t in tuple_set:
                self._buckets.setdefault(t, []).append(tuple_set)

    def _candidates(self, probe: TupleSet, anchor: Optional[Tuple]) -> Iterable[TupleSet]:
        if self._use_index:
            key = anchor
            if key is None and self._anchor_relation is not None:
                key = probe.tuple_from(self._anchor_relation)
            if key is not None:
                return self._buckets.get(key, ())
            # Fall back to a full scan when no anchor tuple is available.
        return self._sets

    def contains_superset(self, probe: TupleSet, anchor: Optional[Tuple] = None) -> bool:
        """Line 11 of ``GetNextResult``: is ``probe`` contained in a stored set?"""
        for stored in self._candidates(probe, anchor):
            self.statistics.sets_scanned += 1
            if probe.issubset(stored):
                return True
        return False

    def contains_superset_mask(
        self, id_mask: int, relation_mask: int, anchor: Tuple, catalog
    ) -> bool:
        """:meth:`contains_superset` for a probe given as the tuple bitmask
        ``id_mask`` of ``catalog``, with its relation bitmask and anchor tuple.
        """
        stored_sets = self._buckets.get(anchor, ()) if self._use_index else self._sets
        for stored in stored_sets:
            self.statistics.sets_scanned += 1
            if not id_mask & ~stored.id_mask:
                return True
        return False

    def covered_singletons(self, singletons: int, catalog) -> int:
        """The singletons ``{t_b}`` of the gid mask ``singletons`` that a
        stored set contains, one :meth:`contains_superset_mask` probe each."""
        covered = 0
        remaining = singletons
        while remaining:
            low = remaining & -remaining
            gid = low.bit_length() - 1
            relation_bit = 1 << catalog.relation_of_tuple(gid)
            if self.contains_superset_mask(low, relation_bit, catalog.tuple_at(gid), catalog):
                covered |= low
            remaining ^= low
        return covered

    def as_list(self) -> List[TupleSet]:
        """The stored sets in insertion (printing) order."""
        return list(self._sets)


class WalkedCompleteStore:
    """The indexed ``Complete`` walked set by set, kept as the oracle of the
    counters :class:`repro.core.store.CompleteStore` reports.

    Stored sets are hashed by every member tuple (Section 7) and, within a
    bucket, grouped by relation set in order of first appearance.  A probe
    visits the groups of its anchor tuple's bucket in that order, counting
    each in ``bucket_probes``, and tests every set of each group whose
    relation set contains the probe's, counting each in ``sets_scanned``,
    until one holds the probe.  Without an anchor tuple it tests every
    stored set.  Retraction drops the sets holding a dead tuple from their
    groups in place, and a group or bucket left empty with them.
    """

    def __init__(self, anchor_relation: Optional[str] = None):
        self._anchor_relation = anchor_relation
        self._sets: List[TupleSet] = []
        self._buckets: Dict[Tuple, Dict[FrozenSet[str], List[TupleSet]]] = {}
        self.statistics = PoolStatistics()

    def add(self, tuple_set: TupleSet) -> None:
        self._sets.append(tuple_set)
        for t in tuple_set:
            groups = self._buckets.setdefault(t, {})
            groups.setdefault(tuple_set.relations, []).append(tuple_set)

    def _walk(self, key, relations, holds: Callable[[TupleSet], bool]) -> bool:
        for group_relations, group in self._buckets.get(key, {}).items():
            self.statistics.bucket_probes += 1
            if not relations <= group_relations:
                continue
            for stored in group:
                self.statistics.sets_scanned += 1
                if holds(stored):
                    return True
        return False

    def contains_superset(self, probe: TupleSet, anchor: Optional[Tuple] = None) -> bool:
        key = anchor
        if key is None and self._anchor_relation is not None:
            key = probe.tuple_from(self._anchor_relation)
        if key is None:
            self.statistics.full_scans += 1
            for stored in self._sets:
                self.statistics.sets_scanned += 1
                if probe.issubset(stored):
                    return True
            return False
        return self._walk(key, probe.relations, probe.issubset)

    def contains_superset_mask(
        self, id_mask: int, relation_mask: int, anchor: Tuple, catalog
    ) -> bool:
        return self._walk(
            anchor,
            catalog.relation_names_of(relation_mask),
            lambda stored: not id_mask & ~stored.id_mask,
        )

    def retract_containing(self, dead_tuples) -> List[TupleSet]:
        """Drop every stored set holding a dead tuple; return them in
        insertion order, each once."""
        dead = set(dead_tuples)

        def holds_dead(stored: TupleSet) -> bool:
            return any(t in stored for t in dead)

        retracted: List[TupleSet] = []
        for stored in self._sets:
            if holds_dead(stored) and stored not in retracted:
                retracted.append(stored)
        self._sets = [stored for stored in self._sets if not holds_dead(stored)]
        for t in list(self._buckets):
            groups = self._buckets[t]
            for relations in list(groups):
                groups[relations] = [s for s in groups[relations] if not holds_dead(s)]
                if not groups[relations]:
                    del groups[relations]
            if not groups:
                del self._buckets[t]
        return retracted


class IncompleteList:
    """The paper's ``Incomplete`` linked list, literally: a Python list
    searched by value, with ``"paper"``, ``"fifo"`` or ``"lifo"``
    extraction as :class:`repro.core.pools.ListIncompletePool` has them, and
    the sets of each anchor tuple in insertion order."""

    def __init__(self, anchor_relation, extraction="paper"):
        self.anchor_relation = anchor_relation
        self.extraction = extraction
        self.items = []
        self.cursor = 0
        self.buckets = {}

    def __len__(self):
        return len(self.items)

    def _anchor(self, tuple_set):
        return tuple_set.tuple_from(self.anchor_relation)

    def candidates(self, probe):
        """The Line 14 probe: every waiting set, in list order."""
        return list(self.items)

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

    def settle(self, anchors):
        """``requeue_singletons``: the first set of each bucket moves last."""
        for anchor in anchors:
            bucket = self.buckets[anchor]
            bucket.append(bucket.pop(0))

    def discard(self, dead):
        kept = [s for s in self.items if not s.tuples & dead]
        evicted = len(self.items) - len(kept)
        if evicted:
            self.items = kept
            self.cursor = 0
            self.buckets = {
                anchor: [s for s in bucket if not s.tuples & dead]
                for anchor, bucket in self.buckets.items()
            }
        return evicted
