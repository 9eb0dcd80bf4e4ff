"""``Incomplete`` containers: the engine's pools and their shared counters.

The paper stores both containers as linked lists and, in Section 7,
recommends replacing them with hash tables keyed by the member tuple of the
anchor relation ``R_i``.  The engine's ``Complete`` is the dual-indexed
:class:`repro.core.store.CompleteStore` (anchor-tuple buckets plus
relation-set groups, over the interned bitset
:class:`~repro.core.tupleset.TupleSet` representation); the paper's literal
list ``Complete`` survives as the oracle ``tests/core/reference_store.py``.

This module keeps the ``Incomplete`` containers, backed by lists and the
Section 7 hash index, one bucket per anchor tuple (the ``Incomplete`` list
keeps its members in slots so a replace is O(1); the literal searched list
survives as the oracle in ``tests/core/test_pools.py``):

* :class:`ListIncompletePool` — the ``Incomplete`` list of ``IncrementalFD``;
  positional list semantics matching the paper's linked list.
* :class:`PriorityIncompletePool` — the ``Incomplete_i`` priority queues of
  ``PriorityIncrementalFD``; extraction by highest rank.

The two pools are the engine's own (:mod:`repro.core.store` re-exports
them).  Both answer the Line 14 probe for a tuple set (``candidates``) and
for a bare anchor tuple (``waiting``, the form the mask step of
:mod:`repro.core.incremental` uses) from the bucket of the anchor tuple
alone, since a set with another ``R_i`` tuple can never merge with the
probe; and both apply ``replace(S, S)`` given its anchor (``requeue``),
which moves ``S`` to the end of its bucket (and of the priority pool's
member order) without re-ranking it.  The list pool also settles the
step's anchor singletons in bulk: gid masks of the anchors with one and
with two or more waiting sets (``waiting_anchors``, read off each set's own
mask), and ``requeue_singletons``.  The paper's linear lists, whose probes
walk every member, are the comparison arm of E1 and E6
(``benchmarks/linear_lists.py``).

**One catalog.**  Every container holds the sets of one catalog, the one its
first set (or seed block) is interned in, and ``add`` refuses a set of
another catalog with ``ValueError``: a query runs in one catalog (see
:mod:`repro.core.scanner`), so its masks can be read off any member.

**The seed block.**  :meth:`ListIncompletePool.seed` takes Line 1's
singletons ``{t}``, ``t ∈ R_i``, as one gid mask and keeps them, in gid
(scan) order, after every set added later: where a list that added each
seed puts them once it has popped, and ``IncrementalFD`` pops before it
adds.  A seed's tuple set is built in place only when ``pop`` or a probe
without an anchor reaches it or a probe or ``add`` names its anchor; views
list it as a copy.  This is exact: a waiting seed ``{a}`` is the only
waiting set with anchor ``a``, a bucket of one in ``waiting_anchors``, and
is built before anything joins its bucket, so ``replace`` and ``requeue``
only ever see built members.  Every counter reads as if each seed had been added:
``additions`` counts the seeds at seeding, and ``len``, ``peak_size`` and
the full scan's ``sets_scanned`` count unbuilt ones.

**The eviction sweep.**  Streaming deletion drops every member holding a
dead tuple: both pools' ``discard_containing`` run :func:`holding_dead`,
one Python loop over the members.

All containers count the tuple sets they scan in a :class:`PoolStatistics`
(shared with :mod:`repro.core.store`), which the benchmarks use as a
machine-independent work measure.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional
from typing import Tuple as TupleType

from repro.relational.tuples import Tuple
from repro.core.tupleset import TupleSet

__all__ = [
    "PoolStatistics",
    "ListIncompletePool",
    "PriorityIncompletePool",
    "holding_dead",
    "one_catalog",
]


#: The number of set bits of a non-negative mask (``int.bit_count`` on Python 3.10+).
popcount = getattr(int, "bit_count", None) or (lambda mask: bin(mask).count("1"))


def _gids(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def one_catalog(held, catalog):
    """The catalog of a container that held the sets of ``held`` (``None``
    for none yet) once it admits a set of ``catalog``: ``catalog`` itself,
    which must be ``held`` unless the container held nothing."""
    if held is not None and catalog is not held:
        raise ValueError("a container holds the sets of one catalog; this set is of another")
    return catalog


def holding_dead(sets: Iterable[TupleSet], dead) -> List[TupleSet]:
    """The eviction sweep: the members of ``sets``, in order, that hold a
    tuple equal to one in the set ``dead``.

    Tuples are matched by equality, not by catalog gid: after an update
    back to old values a live incarnation equals the dead one, so a gid
    lookup of a dead tuple can name the live tuple instead.
    """
    return [tuple_set for tuple_set in sets if any(t in dead for t in tuple_set)]


class PoolStatistics:
    """Work counters shared by all containers (used by the benchmark harness).

    ``sets_scanned`` is the headline measure: the number of stored tuple sets
    actually subjected to a subsumption or merge test.  ``bucket_probes``
    counts hash-index buckets / relation-set groups inspected on the way, and
    ``full_scans`` counts probes that traversed the whole container (no index
    or no anchor available).
    """

    __slots__ = (
        "sets_scanned",
        "additions",
        "removals",
        "replacements",
        "peak_size",
        "bucket_probes",
        "full_scans",
    )

    def __init__(self) -> None:
        self.sets_scanned = 0
        self.additions = 0
        self.removals = 0
        self.replacements = 0
        self.peak_size = 0
        self.bucket_probes = 0
        self.full_scans = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sets_scanned": self.sets_scanned,
            "additions": self.additions,
            "removals": self.removals,
            "replacements": self.replacements,
            "peak_size": self.peak_size,
            "bucket_probes": self.bucket_probes,
            "full_scans": self.full_scans,
        }

    def __repr__(self) -> str:
        rendered = ", ".join(f"{key}={value}" for key, value in self.as_dict().items())
        return f"PoolStatistics({rendered})"


class ListIncompletePool:
    """The ``Incomplete`` list of ``IncrementalFD``, with positional semantics.

    The list behaves like the paper's linked list, traversed as in its
    worked example (Table 3): ``pop`` removes the head, the candidates
    generated while processing it are inserted at the head, in generation
    order, so they are processed before older entries, and ``replace``
    keeps the replaced set's position.

    Each member sits in a one-element *slot* (a list) and a dict maps every
    member to its slot, so the Line 15 ``replace`` rewrites the slot in place
    in O(1) instead of searching the list.  When the union is already a
    member, the slot is emptied instead; ``pop`` skips empty slots, and
    empty slots never change the order of the live members.

    Parameters
    ----------
    anchor_relation:
        Name of ``R_i``; every member set contains exactly one tuple of this
        relation, which keys the hash index.
    """

    def __init__(self, anchor_relation: str):
        self._anchor_relation = anchor_relation
        # Slots in list order; a slot holds its member, or None once emptied.
        self._items: Deque[list] = deque()
        self._slots: Dict[TupleSet, list] = {}
        # Slot position where the next candidate is inserted.
        self._insert_cursor = 0
        # Anchor tuple -> its members, in insertion order (dict as ordered set).
        self._buckets: Dict[Tuple, Dict[TupleSet, None]] = {}
        # The catalog of every member (see the module docstring).
        self._catalog = None
        # Gid masks: the anchors with at least one and at least two waiting
        # sets, and every anchor seen.
        self._waiting_once = self._waiting_twice = self._anchors_seen = 0
        # The seed block (see seed): gids of its seeds and of the unbuilt
        # ones, and the slots of the built ones.
        self._seeds = self._unbuilt = 0
        self._seed_slots: Dict[int, list] = {}
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        if self._unbuilt:
            return len(self._slots) + popcount(self._unbuilt)
        return len(self._slots)

    def __bool__(self) -> bool:
        return bool(self._slots or self._unbuilt)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(self.as_list())

    def __contains__(self, tuple_set: TupleSet) -> bool:
        if self._unbuilt:
            gid = self._pending_gid(self._anchor_of(tuple_set))
            if gid is not None and TupleSet.singleton_at(gid, self._catalog) == tuple_set:
                return True
        return tuple_set in self._slots

    def seed(self, seeds: int, catalog) -> None:
        """Add ``{t}`` for each anchor tuple ``t`` of ``catalog``'s gid mask
        ``seeds`` to an empty pool, as a seed block (see the module
        docstring)."""
        if self:
            raise ValueError("seeds go into an empty Incomplete pool")
        self._catalog = one_catalog(self._catalog, catalog)
        self._seed_slots.clear()
        self._seeds = self._unbuilt = seeds
        statistics = self.statistics
        statistics.additions += popcount(seeds)
        statistics.peak_size = max(statistics.peak_size, len(self))
        # Each pending seed is a bucket of one.
        self._anchors_seen |= seeds
        self._waiting_once |= seeds

    def _pending_gid(self, anchor: Optional[Tuple]) -> Optional[int]:
        """The gid of the unbuilt seed whose tuple equals ``anchor``, if any."""
        if anchor is None:
            return None
        catalog = self._catalog
        gid = catalog.id_of(anchor)
        if gid is not None and (self._unbuilt >> gid) & 1:
            return gid
        # A seed tombstoned since seeding: the lookup names its namesake.
        stale = self._unbuilt & catalog.dead_mask
        return next((gid for gid in _gids(stale) if catalog.tuple_at(gid) == anchor), None)

    def _build(self, gid: int) -> TupleSet:
        """Build the unbuilt seed ``gid`` in place: its slot stays in the block."""
        seed = TupleSet.singleton_at(gid, self._catalog)
        slot = self._seed_slots[gid] = [seed]
        self._slots[seed] = slot
        self._unbuilt ^= 1 << gid
        self._buckets.setdefault(self._catalog.tuple_at(gid), {})[seed] = None
        return seed

    def _build_pending(self, anchor: Optional[Tuple]) -> None:
        """Build the unbuilt seed of ``anchor``, if any."""
        gid = self._pending_gid(anchor)
        if gid is not None:
            self._build(gid)

    def _walk(self, build: bool) -> Iterator[TupleSet]:
        """The members in list order; an unbuilt seed is built in place when
        ``build``, else listed as a copy the pool does not keep."""
        yield from (slot[0] for slot in self._items if slot[0] is not None)
        for gid in _gids(self._seeds):
            if (self._unbuilt >> gid) & 1:
                yield self._build(gid) if build else TupleSet.singleton_at(gid, self._catalog)
            elif self._seed_slots[gid][0] is not None:
                yield self._seed_slots[gid][0]

    def _anchor_of(self, tuple_set: TupleSet) -> Optional[Tuple]:
        return tuple_set.tuple_from(self._anchor_relation)

    def _anchor_bit(self, tuple_set: TupleSet) -> int:
        """The gid bit of ``tuple_set``'s anchor, read off its own mask and
        added to the anchors seen."""
        catalog = self._catalog
        rid = catalog.relation_id(self._anchor_relation)
        bit = tuple_set.id_mask & catalog.relation_tuples_mask(rid)
        self._anchors_seen |= bit
        return bit

    def _index_add(self, tuple_set: TupleSet) -> None:
        anchor = self._anchor_of(tuple_set)
        if anchor is not None:
            bucket = self._buckets.setdefault(anchor, {})
            bucket[tuple_set] = None
            bit = self._anchor_bit(tuple_set)
            if len(bucket) == 1:
                self._waiting_once |= bit
            elif len(bucket) == 2:
                self._waiting_twice |= bit

    def _index_discard(self, tuple_set: TupleSet) -> None:
        anchor = self._anchor_of(tuple_set)
        if anchor is not None:
            bucket = self._buckets.get(anchor)
            if bucket is not None and tuple_set in bucket:
                del bucket[tuple_set]
                if not bucket:
                    self._waiting_once &= ~self._anchor_bit(tuple_set)
                elif len(bucket) == 1:
                    self._waiting_twice &= ~self._anchor_bit(tuple_set)

    def add(self, tuple_set: TupleSet) -> None:
        """Insert a tuple set (Line 18 of ``GetNextResult`` / initialization)."""
        self._catalog = one_catalog(self._catalog, tuple_set.catalog)
        pending = 0
        if self._unbuilt:
            anchor = self._anchor_of(tuple_set)
            if not self._buckets.get(anchor):
                self._build_pending(anchor)
            pending = popcount(self._unbuilt)
        if tuple_set in self._slots:
            return
        slot = [tuple_set]
        self._items.insert(self._insert_cursor, slot)
        self._insert_cursor += 1
        self._slots[tuple_set] = slot
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._slots) + pending)
        self._index_add(tuple_set)

    def pop(self) -> TupleSet:
        """Remove and return the next tuple set to extend (Line 1)."""
        if not (self._slots or self._unbuilt):
            raise IndexError("pop from an empty Incomplete pool")
        tuple_set = self._take()
        del self._slots[tuple_set]
        self._index_discard(tuple_set)
        self._insert_cursor = 0
        self.statistics.removals += 1
        return tuple_set

    def _take(self) -> TupleSet:
        """Take the head out of a non-empty list: the first live slot, else
        the first seed of the seed block, which comes after the other slots."""
        while self._items:
            tuple_set = self._items.popleft()[0]
            if tuple_set is not None:
                return tuple_set
        while True:
            low = self._seeds & -self._seeds
            self._seeds ^= low
            gid = low.bit_length() - 1
            if self._unbuilt & low:
                self._build(gid)
            tuple_set = self._seed_slots.pop(gid)[0]
            if tuple_set is not None:
                return tuple_set

    def candidates(self, probe: TupleSet) -> List[TupleSet]:
        """Member sets that might merge with ``probe`` (Line 14 probe): the
        bucket of ``probe``'s anchor tuple, since a set with a different
        ``R_i`` tuple can never merge with ``probe`` (their union would hold
        two tuples of ``R_i``)."""
        return list(self.waiting(self._anchor_of(probe)))

    def waiting(self, anchor: Optional[Tuple]) -> Iterable[TupleSet]:
        """The Line 14 probe for a candidate whose ``R_i`` tuple is ``anchor``.

        Counts and returns what :meth:`candidates` returns, as a live view
        instead of a copy: a caller that changes the pool must stop
        iterating.  A probe without an anchor walks the whole list.
        """
        if anchor is None:
            return self._scan_all()
        bucket = self._buckets.get(anchor, ())
        if not bucket and self._unbuilt:
            # A waiting seed is alone in its bucket: build it now.
            self._build_pending(anchor)
            bucket = self._buckets.get(anchor, ())
        statistics = self.statistics
        statistics.bucket_probes += 1
        statistics.sets_scanned += len(bucket)
        return bucket

    def _scan_all(self) -> Iterable[TupleSet]:
        """Every member in list order, counted as one full scan."""
        statistics = self.statistics
        statistics.full_scans += 1
        statistics.sets_scanned += len(self)
        return self._walk(build=True)

    def replace(self, old: TupleSet, new: TupleSet) -> None:
        """Replace ``old`` by ``new`` (Line 15), in place.

        A merge that changes nothing (``new is old``) keeps the slot and
        only moves ``old`` to the end of its anchor bucket, which is all the
        general path's remove-and-reinsert would change.  A merge that grows
        ``old`` keeps its anchor: ``new`` swaps in, leaving the masks as they are.
        """
        if new is old:
            if old not in self._slots:
                raise KeyError(f"{old!r} is not in the Incomplete pool")
            self.requeue(old, self._anchor_of(old))
            return
        self._catalog = one_catalog(self._catalog, new.catalog)
        slot = self._slots.pop(old, None)
        if slot is None:
            raise KeyError(f"{old!r} is not in the Incomplete pool")
        self.statistics.replacements += 1
        if new in self._slots:
            # The union already exists elsewhere in the list; just drop ``old``.
            self._index_discard(old)
            slot[0] = None
            return
        slot[0] = new
        self._slots[new] = slot
        anchor = self._anchor_of(old)
        bucket = self._buckets.get(anchor)
        if bucket is not None and self._anchor_of(new) is anchor:
            del bucket[old]
            bucket[new] = None
        else:
            self._index_discard(old)
            self._index_add(new)

    def requeue(self, member: TupleSet, anchor: Optional[Tuple]) -> None:
        """``replace(member, member)`` for a member whose ``R_i`` tuple is
        ``anchor``: the member keeps its slot and moves to the end of its
        anchor bucket."""
        self.statistics.replacements += 1
        if anchor is not None:
            bucket = self._buckets[anchor]
            del bucket[member]
            bucket[member] = None

    def waiting_anchors(self, catalog) -> Optional[TupleType[int, int]]:
        """The gid masks, in ``catalog``, of the anchors with at least one
        and with at least two waiting sets; ``None`` when the pool holds a
        set whose anchor is now tombstoned (see :mod:`repro.core.store`)."""
        if self._anchors_seen & catalog.dead_mask:
            return None
        return self._waiting_once, self._waiting_twice

    def requeue_singletons(self, anchors: int, crowded: int, catalog) -> None:
        """Lines 12–15 for the singletons ``{t_b}`` of the gid mask
        ``anchors``, each with a waiting set: the first set of ``t_b``'s
        bucket merges and is requeued, which moves it only in the buckets of
        ``crowded``.  Each is counted as :meth:`waiting` and :meth:`requeue`
        count it."""
        statistics = self.statistics
        count = popcount(anchors)
        statistics.bucket_probes += count
        statistics.replacements += count
        statistics.sets_scanned += count
        while crowded:
            low = crowded & -crowded
            bucket = self._buckets[catalog.tuple_at(low.bit_length() - 1)]
            statistics.sets_scanned += len(bucket) - 1
            first = next(iter(bucket))
            del bucket[first]
            bucket[first] = None
            crowded ^= low

    def discard_containing(self, dead_tuples) -> int:
        """Evict every queued set holding a dead tuple (streaming deletion).

        A queued set containing a deleted tuple can never extend into a
        result of the post-deletion database; it is dropped from the list,
        the membership map and the index in one sweep, without touching the
        surviving members.  Returns the number of sets evicted.
        """
        dead = set(dead_tuples)
        if not dead or not self:
            return 0
        for gid in _gids(self._unbuilt):
            self._build(gid)
        victims = holding_dead(self.as_list(), dead)
        for tuple_set in victims:
            self._slots.pop(tuple_set)[0] = None
            self._index_discard(tuple_set)
            self.statistics.removals += 1
        if victims:
            self._items = deque(slot for slot in self._items if slot[0] is not None)
            self._insert_cursor = 0
        return len(victims)

    def as_list(self) -> List[TupleSet]:
        """The live member sets in list order (used by the trace harness),
        a seed not built yet as a copy."""
        return list(self._walk(build=False))

    def anchor_buckets(self) -> Dict[Tuple, List[TupleSet]]:
        """The non-empty anchor buckets, each in bucket order, a seed not
        built yet as a bucket of its own copy."""
        buckets = {anchor: list(bucket) for anchor, bucket in self._buckets.items() if bucket}
        catalog = self._catalog
        for gid in _gids(self._unbuilt):
            buckets[catalog.tuple_at(gid)] = [TupleSet.singleton_at(gid, catalog)]
        return buckets


class PriorityIncompletePool:
    """The ``Incomplete_i`` priority queue of ``PriorityIncrementalFD``.

    Extraction returns the member set with the highest rank according to the
    supplied ranking function.  Ties are broken by insertion order, which
    keeps runs deterministic.
    """

    def __init__(self, anchor_relation: str, ranking: Callable[[TupleSet], float]):
        self._anchor_relation = anchor_relation
        self._ranking = ranking
        self._heap: List = []
        # Members in insertion order (dict as ordered set): a probe without
        # an anchor and iteration visit them in an order no hash decides.
        self._members: Dict[TupleSet, None] = {}
        self._counter = itertools.count()
        # Anchor tuple -> its members, in insertion order (dict as ordered set).
        self._buckets: Dict[Tuple, Dict[TupleSet, None]] = {}
        # The catalog of every member (see the module docstring).
        self._catalog = None
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(list(self._members))

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def _anchor_of(self, tuple_set: TupleSet) -> Optional[Tuple]:
        return tuple_set.tuple_from(self._anchor_relation)

    def add(self, tuple_set: TupleSet) -> None:
        """Insert a tuple set, keyed by its rank."""
        self._catalog = one_catalog(self._catalog, tuple_set.catalog)
        if tuple_set in self._members:
            return
        score = self._ranking(tuple_set)
        heapq.heappush(self._heap, (-score, next(self._counter), tuple_set))
        self._members[tuple_set] = None
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._members))
        self._index_add(tuple_set)

    def _index_add(self, tuple_set: TupleSet) -> None:
        anchor = self._anchor_of(tuple_set)
        if anchor is not None:
            self._buckets.setdefault(anchor, {})[tuple_set] = None

    def _prune(self) -> None:
        while self._heap and self._heap[0][2] not in self._members:
            heapq.heappop(self._heap)

    def peek_score(self) -> Optional[float]:
        """The rank of the highest-ranking member set, or ``None`` when empty."""
        self._prune()
        if not self._heap:
            return None
        return -self._heap[0][0]

    def peek(self) -> Optional[TupleSet]:
        """The highest-ranking member set, or ``None`` when empty."""
        self._prune()
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop(self) -> TupleSet:
        """Remove and return the highest-ranking member set."""
        self._prune()
        if not self._heap:
            raise IndexError("pop from an empty priority Incomplete pool")
        _, _, tuple_set = heapq.heappop(self._heap)
        self._discard(tuple_set)
        self.statistics.removals += 1
        return tuple_set

    def _discard(self, tuple_set: TupleSet) -> None:
        self._members.pop(tuple_set, None)
        bucket = self._buckets.get(self._anchor_of(tuple_set))
        if bucket is not None:
            bucket.pop(tuple_set, None)

    def candidates(self, probe: TupleSet) -> List[TupleSet]:
        """Member sets that might merge with ``probe`` (see :class:`ListIncompletePool`)."""
        return list(self.waiting(self._anchor_of(probe)))

    def waiting(self, anchor: Optional[Tuple]) -> Iterable[TupleSet]:
        """The counted Line 14 probe as a live view (see :meth:`ListIncompletePool.waiting`)."""
        statistics = self.statistics
        if anchor is None:
            statistics.full_scans += 1
            statistics.sets_scanned += len(self._members)
            return self._members
        bucket = self._buckets.get(anchor, ())
        statistics.bucket_probes += 1
        statistics.sets_scanned += len(bucket)
        return bucket

    def replace(self, old: TupleSet, new: TupleSet) -> None:
        """Replace ``old`` by ``new``; the new set is re-ranked.

        ``replace(S, S)`` is :meth:`requeue`.
        """
        if old not in self._members:
            raise KeyError(f"{old!r} is not in the Incomplete pool")
        if new is old:
            self.requeue(old, self._anchor_of(old))
            return
        self._catalog = one_catalog(self._catalog, new.catalog)
        self._discard(old)
        self.statistics.replacements += 1
        if new not in self._members:
            score = self._ranking(new)
            heapq.heappush(self._heap, (-score, next(self._counter), new))
            self._members[new] = None
            self._index_add(new)

    def requeue(self, member: TupleSet, anchor: Optional[Tuple]) -> None:
        """``replace(member, member)``: the member moves to the end of the
        member order and of its bucket.  Its heap entry stays, since a
        re-push, with the same rank and a later counter, would never pop."""
        self.statistics.replacements += 1
        del self._members[member]
        self._members[member] = None
        if anchor is not None:
            bucket = self._buckets[anchor]
            del bucket[member]
            bucket[member] = None

    def waiting_anchors(self, catalog) -> None:
        """Never on masks: :meth:`requeue` reorders the one member list, so
        survivors are placed one at a time, in plan order."""
        return None

    def discard_containing(self, dead_tuples) -> int:
        """Evict every queued set holding a dead tuple (streaming deletion).

        See :meth:`ListIncompletePool.discard_containing`; the heap entries
        of evicted sets are pruned lazily, as for :meth:`pop`.
        """
        dead = set(dead_tuples)
        if not dead or not self._members:
            return 0
        victims = holding_dead(self._members, dead)
        for tuple_set in victims:
            self._discard(tuple_set)
            self.statistics.removals += 1
        return len(victims)

    def as_list(self) -> List[TupleSet]:
        """The live member sets in descending rank order."""
        ordered = sorted(
            self._members, key=lambda tuple_set: (-self._ranking(tuple_set), tuple_set.sort_key())
        )
        return ordered
