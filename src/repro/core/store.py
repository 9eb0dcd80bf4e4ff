"""Indexed ``Complete``/``Incomplete`` store layer (Section 7).

The paper stores both containers as linked lists and, in Section 7,
recommends replacing them with hash tables keyed by the member tuple of the
anchor relation ``R_i``, so that the subsumption test (Line 11) and the merge
test (Line 14) of ``GetNextResult`` only scan the tuple sets that share the
candidate's ``R_i`` tuple.  This module is the engine's unified store
subsystem implementing that recommendation on top of the interned
:class:`~repro.core.tupleset.TupleSet` representation:

* :class:`CompleteStore` — already-printed results.  Stored sets are indexed
  **twice**: by every member tuple (the Section 7 hash index) and, within
  each bucket, by their relation set.  A superset probe therefore touches
  only the bucket of its anchor tuple, skips whole relation-set groups that
  cannot contain a superset, and decides each remaining candidate with one
  bitmask comparison.
* :class:`ListIncompletePool` / :class:`PriorityIncompletePool` — the
  ``Incomplete`` containers of :mod:`repro.core.pools` (which own the
  paper's positional and heap semantics and the anchor-bucket merge probe),
  re-exported so the engine imports every container from here.

Each container exists once in ``src/``.  The paper's literal ``Complete``
list — one bucket level, an ``issubset`` per stored set — is kept only as
the test oracle ``tests/core/reference_store.py``, which the randomized
equivalence tests run beside :class:`CompleteStore`.  All containers fill in a
:class:`~repro.core.pools.PoolStatistics`, the machine-independent work
measure the benchmarks (E1, E6) report: ``sets_scanned`` counts subset/merge
tests actually performed, ``bucket_probes`` counts index buckets and
relation-set groups inspected, and ``full_scans`` counts probes that had to
fall back to a full traversal.

**Masks.**  When ``GetNextResult`` runs Lines 7–9 on masks (see
:mod:`repro.core.incremental`), each Line 9 survivor reaches Lines 10–18 as
its gid mask, relation mask and anchor tuple, not as a tuple set.
:meth:`CompleteStore.contains_superset_mask` probes the same bucket and
relation-set groups as :meth:`CompleteStore.contains_superset` and decides a
stored set with one ``AND NOT``.  Both probes answer a group whose relation
set equals the probe's without a walk: a JCC set holds one tuple per
relation, so when every set of the group does too, the only stored superset
of the probe there is the probe itself.  The group's map from id mask to
the position of its first copy answers, and ``sets_scanned`` counts that
position plus one, or the group's length on a miss, as the walk would.  A
group builds its map at the first such probe and keeps it on ``add``;
retraction rebuilds the touched groups without one.  A group holding a set
with more gids than relations walks, and so does a tuple-set probe of
another catalog than the store's.  The pools' ``waiting`` returns the sets
the Line 14 probe tests, counted as ``candidates`` counts them, without a
copy; and ``requeue`` applies ``replace(S, S)`` for a survivor already
inside ``S``.  Every counter reads what the tuple-set probes would have
counted.  The anchor singletons ``{t_b}`` are settled as one gid mask: the
indexed store keeps the gids of every tuple its sets hold
(:meth:`CompleteStore.covered_singletons`), and the indexed list pool the
gids of the anchors with at least one and at least two waiting sets, read
off each set's own mask (``waiting_anchors``, ``requeue_singletons``).
Each keeps its masks current in its own add, discard, replace and retract
paths.  Every container holds the sets of one catalog and refuses a set
of another on ``add`` (see :mod:`repro.core.pools`), so the masks are of
one catalog.  They answer ``None`` on unindexed containers, the priority
pool, and a container holding a set whose tuple (the anchor, in the pool)
is now tombstoned, since an update back to old values gives that tuple a
live namesake in the same bucket.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional

from repro.relational.tuples import Tuple
from repro.core.pools import (
    ListIncompletePool,
    PoolStatistics,
    PriorityIncompletePool,
    holding_dead,
    one_catalog,
    popcount,
)
from repro.core.tupleset import TupleSet
from repro.obs.tracing import trace_span

__all__ = [
    "PoolStatistics",
    "CompleteStore",
    "ListIncompletePool",
    "PriorityIncompletePool",
    "record_store_statistics",
    "probe_counters",
]


class _Group(list):
    """One relation-set group of a bucket: the stored sets whose relation set
    is the group's, in insertion order.

    ``positions`` maps the id mask of each stored set to the position of its
    first copy, for probes whose relation set is the group's: ``None`` until
    the first such probe builds it, ``False`` once the group holds a set
    with more gids than relations (see the module docstring).
    """

    __slots__ = ("positions",)

    def __init__(self, stored_sets=()):
        super().__init__(stored_sets)
        self.positions = None


def _first_positions(group: _Group, relation_count: int):
    """``group.positions`` built from scratch (``False`` when it cannot be)."""
    positions = {}
    for position, stored in enumerate(group):
        id_mask = stored._id_mask
        if popcount(id_mask) != relation_count:
            return False
        positions.setdefault(id_mask, position)
    return positions


class CompleteStore:
    """The ``Complete`` list: results already printed, dual-indexed.

    Parameters
    ----------
    anchor_relation:
        Name of the relation ``R_i`` whose member tuple keys the hash index.
        Only used when ``use_index`` is true.  In the priority algorithm the
        store is shared by all indexes; the superset probe then passes the
        anchor tuple explicitly.
    use_index:
        When true, stored sets are hashed by *every* member tuple (Section 7)
        and grouped by relation set within each bucket; superset probes are
        restricted to the bucket of the probe's anchor tuple and to the
        groups whose relation set contains the probe's.
    """

    def __init__(self, anchor_relation: Optional[str] = None, use_index: bool = False):
        self._anchor_relation = anchor_relation
        self._use_index = use_index
        self._sets: List[TupleSet] = []
        self._members = set()
        # tuple -> relation set -> stored sets holding that tuple.
        self._buckets: Dict[Tuple, Dict[FrozenSet[str], _Group]] = {}
        # The catalog of every stored set (see repro.core.pools) and, with
        # the index, the gids of every tuple a stored set holds.
        self._catalog = None
        self._held = 0
        self.statistics = PoolStatistics()

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[TupleSet]:
        return iter(self._sets)

    def __contains__(self, tuple_set: TupleSet) -> bool:
        return tuple_set in self._members

    def add(self, tuple_set: TupleSet) -> None:
        """Store a printed result."""
        self._catalog = one_catalog(self._catalog, tuple_set.catalog)
        self._sets.append(tuple_set)
        self._members.add(tuple_set)
        self.statistics.additions += 1
        self.statistics.peak_size = max(self.statistics.peak_size, len(self._sets))
        if self._use_index:
            relations = tuple_set.relations
            id_mask = tuple_set.id_mask
            for t in tuple_set:
                groups = self._buckets.setdefault(t, {})
                group = groups.get(relations)
                if group is None:
                    group = groups[relations] = _Group()
                group.append(tuple_set)
                if group.positions:  # a built map: never empty
                    if popcount(id_mask) != len(relations):
                        group.positions = False
                    else:
                        group.positions.setdefault(id_mask, len(group) - 1)
            self._held |= id_mask

    def contains_superset(self, probe: TupleSet, anchor: Optional[Tuple] = None) -> bool:
        """Line 11 of ``GetNextResult``: is ``probe`` contained in a stored set?"""
        if self._use_index:
            key = anchor
            if key is None and self._anchor_relation is not None:
                key = probe.tuple_from(self._anchor_relation)
            if key is not None:
                groups = self._buckets.get(key)
                if not groups:
                    return False
                probe_relations = probe.relations
                lookup = probe._catalog is self._catalog
                for relations, group in groups.items():
                    self.statistics.bucket_probes += 1
                    # A stored set can only contain the probe when its
                    # relation set contains the probe's.
                    if not probe_relations <= relations:
                        continue
                    if lookup and relations == probe_relations:
                        found = self._look_up(group, probe._id_mask, len(relations))
                        if found is not None:
                            if found:
                                return True
                            continue
                    for stored in group:
                        self.statistics.sets_scanned += 1
                        if probe.issubset(stored):
                            return True
                return False
            # Fall back to a full scan when no anchor tuple is available.
        self.statistics.full_scans += 1
        for stored in self._sets:
            self.statistics.sets_scanned += 1
            if probe.issubset(stored):
                return True
        return False

    def contains_superset_mask(
        self, id_mask: int, relation_mask: int, anchor: Tuple, catalog
    ) -> bool:
        """:meth:`contains_superset` for a probe given as the tuple bitmask
        ``id_mask`` of ``catalog``, with its relation bitmask and anchor tuple.

        The step's Lines 10–11 on masks: the same buckets, groups and stored
        sets are visited, and counted, in the same order.
        """
        statistics = self.statistics
        if not self._use_index:
            statistics.full_scans += 1
            return self._holds_mask(self._sets, id_mask, catalog)
        groups = self._buckets.get(anchor)
        if not groups:
            return False
        relations = catalog.relation_names_of(relation_mask)
        for group_relations, group in groups.items():
            statistics.bucket_probes += 1
            if not relations <= group_relations:
                continue
            found = None
            if relations == group_relations:
                found = self._look_up(group, id_mask, len(relations))
            if found is None:
                found = self._holds_mask(group, id_mask, catalog)
            if found:
                return True
        return False

    def _look_up(self, group: _Group, id_mask: int, relation_count: int) -> Optional[bool]:
        """:meth:`_holds_mask` on a group whose relation set is the probe's,
        by one lookup, counting the sets the walk would have scanned; ``None``,
        counting nothing, when the group cannot answer so."""
        positions = group.positions
        if positions is None:
            positions = group.positions = _first_positions(group, relation_count)
        if positions is False:
            return None
        position = positions.get(id_mask)
        if position is None:
            self.statistics.sets_scanned += len(group)
            return False
        self.statistics.sets_scanned += position + 1
        return True

    def _holds_mask(self, stored_sets: List[TupleSet], id_mask: int, catalog) -> bool:
        """Scan ``stored_sets`` in order for one holding ``id_mask`` of
        ``catalog``, the store's, counting the sets scanned.  Each set is
        decided by one ``AND NOT`` on its slot, read directly: this loop runs
        once per stored set."""
        scanned = 0
        found = False
        for stored in stored_sets:
            scanned += 1
            if not id_mask & ~stored._id_mask:
                found = True
                break
        self.statistics.sets_scanned += scanned
        return found

    def covered_singletons(self, singletons: int, catalog) -> Optional[int]:
        """Lines 10–11 for the anchor singletons ``{t_b}`` of the gid mask
        ``singletons``, at once: the gids a stored set holds, each counted
        as :meth:`contains_superset_mask` counts it, one group and one set.
        ``None``, counting nothing, when the mask cannot answer (see the
        module docstring)."""
        held = self._held
        if not self._use_index or held & catalog.dead_mask:
            return None
        covered = singletons & held
        count = popcount(covered)
        self.statistics.bucket_probes += count
        self.statistics.sets_scanned += count
        return covered

    def contains_superset_batch(
        self, probes: List[TupleSet], anchor: Optional[Tuple] = None
    ) -> List[bool]:
        """:meth:`contains_superset` for each probe, in order.

        Kept for ``perfbench/spans.py``, which patches it by name; the
        benchmark-only change that edits ``spans.py`` deletes it.
        """
        return [self.contains_superset(probe, anchor=anchor) for probe in probes]

    def as_list(self) -> List[TupleSet]:
        """The stored sets in insertion (printing) order."""
        return list(self._sets)

    def retract_containing(self, dead_tuples, catalog=None) -> List[TupleSet]:
        """Drop every stored set holding a dead tuple; return them in order.

        The non-monotone counterpart of :meth:`add`: after a deletion, every
        stored result containing a tombstoned tuple is no longer an answer
        and must stop subsuming new candidates.  Victims are found through
        the anchor-tuple buckets when the index is on (one lookup per dead
        tuple) and by a liveness sweep otherwise — when a ``catalog`` is
        given, the dead tuples are tombstoned in it and the per-set test is
        one ``AND`` of the member bitmask against the tombstone set
        (:meth:`~repro.core.tupleset.TupleSet.contains_tombstoned`), and
        without one it is the pools' eviction sweep
        (:func:`~repro.core.pools.holding_dead`); surviving sets keep their
        ids.  Returned in
        insertion (emission) order, deduplicated, which is the order the
        serving layer retracts them in.
        """
        dead = set(dead_tuples)
        if not dead or not self._sets:
            return []
        span = trace_span("store.retract", "store", dead=len(dead))
        victims = set()
        if self._use_index:
            for t in dead:
                groups = self._buckets.pop(t, None)
                if groups:
                    for group in groups.values():
                        victims.update(group)
        elif catalog is not None:
            victims = {s for s in self._members if s.contains_tombstoned()}
        else:
            victims = set(holding_dead(self._members, dead))
        if not victims:
            span.close()
            return []
        retracted: List[TupleSet] = []
        seen = set()
        for stored in self._sets:
            if stored in victims and stored not in seen:
                retracted.append(stored)
                seen.add(stored)
        self._sets = [stored for stored in self._sets if stored not in victims]
        if self._use_index:
            self._held = 0
            for stored in self._sets:
                self._held |= stored.id_mask
        touched = set()
        for stored in victims:
            self._members.discard(stored)
            self.statistics.removals += 1
            touched.update(stored.tuples)
        if self._use_index:
            for t in touched - dead:
                groups = self._buckets.get(t)
                if not groups:
                    continue
                for relations in list(groups):
                    kept = _Group(s for s in groups[relations] if s not in victims)
                    if kept:
                        groups[relations] = kept
                    else:
                        del groups[relations]
                if not groups:
                    del self._buckets[t]
        span.annotate(retracted=len(retracted))
        span.close()
        return retracted


def record_store_statistics(statistics, *containers) -> None:
    """Accumulate container counters into ``FDStatistics.extras``.

    ``statistics`` is an :class:`~repro.core.incremental.FDStatistics` (or
    anything with an ``extras`` dict); the benchmark tables (E1, E6) read the
    aggregated ``*_sets_scanned`` keys from there.  Containers may be passed
    as ``(prefix, container)`` pairs or bare (the class name is used).
    """
    if statistics is None:
        return
    for entry in containers:
        if isinstance(entry, tuple):
            prefix, container = entry
        else:
            container = entry
            prefix = type(container).__name__.lower()
        for key, value in container.statistics.as_dict().items():
            name = f"{prefix}_{key}"
            statistics.extras[name] = statistics.extras.get(name, 0) + value


def probe_counters(statistics):
    """Total ``(bucket_probes, full_scans)`` across all recorded containers.

    The inverse view of :func:`record_store_statistics`: it prefixes every
    container's counters (``complete_bucket_probes``,
    ``incomplete_full_scans``, …); this sums them back up as the store-layer
    work measure the benchmark tables report next to ``sets_scanned``.
    """
    extras = statistics.extras
    bucket_probes = sum(
        value for key, value in extras.items() if key.endswith("_bucket_probes")
    )
    full_scans = sum(
        value for key, value in extras.items() if key.endswith("_full_scans")
    )
    return bucket_probes, full_scans
