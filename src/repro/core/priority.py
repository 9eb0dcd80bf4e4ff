"""``PriorityIncrementalFD`` (Fig. 3): ranked retrieval of full disjunctions.

For a ranking function ``f`` that is *monotonically c-determined* (see
:mod:`repro.core.ranking`), ``priority_incremental_fd`` emits the members of
``FD(R)`` in non-increasing rank order, so the top-``(k, f)`` problem is
solved in polynomial time in the input and ``k`` (Theorem 5.5), and the
``(τ, f)``-threshold problem by stopping at the first result below the
threshold (Remark 5.6).

The structure mirrors Fig. 3:

1.  For every relation ``R_i`` build a priority queue ``Incomplete_i`` holding
    all JCC tuple sets of size at most ``c`` that contain a tuple of ``R_i``
    (Lines 3–4), then merge queue members whose union is JCC until no pair can
    be merged (Lines 5–8) — this re-establishes the invariant of Remark 4.5.
2.  Repeatedly pick the queue whose top has the highest rank (Lines 10–15),
    call ``GetNextResult`` on it, and print the produced result unless it was
    already printed (Line 17).

Each queue keeps its own ``Complete_i``, the results ``GetNextResult``
produced on it, exactly as pass ``i`` of Fig. 1 does; a separate store of the
printed results answers Line 17.  One ``Complete`` for all the queues would
break the rank order: a result printed through queue ``k`` that holds an
``R_i`` tuple would make queue ``i`` drop (Lines 10–11) the subsets that
still carry the rank witness of another ``R_i`` result, and that result would
then come out only through a lower-ranked entry of some other queue.  Once
every queue is drained, ``Complete_i`` is ``FD_i``, so the delta passes prune
as one store would.

The queue machinery lives in an explicit :class:`PriorityState` object rather
than loop locals, so the whole engine state — the per-relation priority
queues, their ``Complete`` stores and the scanner — survives between
pulls.  That is what makes the state *resumable*: a first-k client stops the
:meth:`PriorityState.results` generator mid-stream and continues later, and
the streaming maintainer (:mod:`repro.service.delta`) pushes an arrival's
qualifying size-≤c subsets into the live queues
(:meth:`PriorityState.ingest`) and drains only the genuinely new results
instead of rebuilding the queues from scratch.

The same loop serves ranked retrieval of the approximate full disjunction
(end of Section 6, "in the spirit of PriorityIncrementalFD"): pass an
:class:`~repro.core.approx.ApproxSemantics` as ``semantics`` and every
``JCC`` test above — the size-≤c seeds, the queue merge and each step —
becomes ``A(·) ≥ τ``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.tuples import Tuple
from repro.core.incremental import EXACT, FDStatistics, get_next_result
from repro.core.store import CompleteStore, PriorityIncompletePool
from repro.core.ranking import (
    RankingFunction,
    canonical_rank_key,
    enumerate_connected_subsets,
    enumerate_connected_subsets_containing,
)
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet

#: A ranked result: the tuple set together with its rank.
RankedResult = TupleType[TupleSet, float]


def _merge_queue_members(pool: PriorityIncompletePool, semantics=EXACT) -> None:
    """Lines 5–8 of Fig. 3: merge queue members whose union is JCC, to a fixpoint.

    After the merge no two members of the queue can be contained in the same
    member of ``FD_i`` (two such members would share the ``R_i`` tuple and be
    join consistent, hence mergeable).  ``semantics`` supplies the merge
    test: ``JCC`` here, ``A ≥ τ`` for ranked approximate retrieval.
    """
    mergeable = semantics.mergeable
    changed = True
    while changed:
        changed = False
        members: List[TupleSet] = list(pool)
        for idx, first in enumerate(members):
            if first not in pool:
                continue
            for second in members[idx + 1:]:
                if second not in pool or first not in pool:
                    continue
                if first == second:
                    continue
                if mergeable(first, second):
                    merged = first.union(second)
                    # Remove both members and insert the union once.
                    pool.replace(first, merged)
                    if second in pool and second != merged:
                        pool.replace(second, merged)
                    changed = True
                    first = merged


def build_priority_pools(
    database: Database,
    ranking: RankingFunction,
    semantics=EXACT,
) -> List[PriorityIncompletePool]:
    """Initialization of Fig. 3: one merged priority queue per relation.

    Under an :class:`~repro.core.approx.ApproxSemantics` each queue holds the
    connected sets of size at most ``c`` with ``A ≥ τ``: every member of
    ``AFD`` has such a witness of its rank, since ``A`` is acceptable.
    """
    ranking.require_monotonically_c_determined()
    catalog = database.catalog()
    pools: List[PriorityIncompletePool] = []
    for relation in database.relations:
        pool = PriorityIncompletePool(relation.name, ranking)
        for tuple_set in enumerate_connected_subsets(
            database, relation.name, ranking.c, catalog=catalog, semantics=semantics
        ):
            pool.add(tuple_set)
        _merge_queue_members(pool, semantics)
        pools.append(pool)
    return pools


class PriorityState:
    """The explicit, resumable engine state of ``PriorityIncrementalFD``.

    Owns everything Fig. 3 keeps between iterations: the per-relation
    priority queues (built eagerly, Lines 3–8) with their ``Complete_i``
    stores, the store of printed results, and the tuple scanner.
    :meth:`results` is the Fig. 3 main loop reading and mutating this
    state — stopping the generator and calling :meth:`results` again
    continues exactly where the previous pull left off, which is what the
    serving layer's pausable sessions rely on.

    Under streaming ingest the state stays live across arrivals:
    :meth:`ingest` pushes each arrival's qualifying size-≤c connected
    subsets into the queues (the delta counterpart of Lines 3–4; everything
    not containing an arrival was already enumerated when the queues were
    built) and a subsequent :meth:`drain_new` re-derives only results
    anchored at the arrivals — mirroring the unranked delta argument that
    every genuinely new result contains the arrival.
    """

    def __init__(
        self,
        database: Database,
        ranking: RankingFunction,
        statistics: Optional[FDStatistics] = None,
        semantics=EXACT,
    ):
        ranking.require_monotonically_c_determined()
        self.semantics = semantics
        self.database = database
        self.ranking = ranking
        self.statistics = statistics
        self.pools = build_priority_pools(database, ranking, semantics=semantics)
        self.anchors = [relation.name for relation in database.relations]
        #: Every distinct result produced so far (Line 17's printed test).
        self.complete = CompleteStore(anchor_relation=None)
        #: ``Complete_i`` of each queue: the results produced on it.
        self.completes = [
            CompleteStore(anchor_relation=None) for _ in self.pools
        ]
        self.scanner = TupleScanner(database)
        #: Results emitted by :meth:`results` so far (across all pulls).
        self.printed = 0
        #: Arrival tuples seeded through :meth:`ingest` so far.
        self.arrivals_seeded = 0
        # Store-counter totals already flushed into ``statistics.extras`` —
        # record_statistics() charges only the delta since the last flush,
        # so resumable use (record, resume, record again) never double-counts.
        self._flushed_totals: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------ #
    # the main loop (Lines 9-17)
    # ------------------------------------------------------------------ #
    def _best_queue(self) -> TupleType[Optional[int], Optional[float]]:
        """Lines 10-15: the queue whose top has the highest rank."""
        best_index = None
        best_score = None
        for index, pool in enumerate(self.pools):
            score = pool.peek_score()
            if score is None:
                continue
            if best_score is None or score > best_score:
                best_score = score
                best_index = index
        return best_index, best_score

    def results(
        self, k: Optional[int] = None, threshold: Optional[float] = None
    ) -> Iterator[RankedResult]:
        """Generate the remaining results in non-increasing rank order.

        ``k`` bounds the results emitted *by this call*; the queue state is
        shared, so interleaved or repeated calls continue one stream.
        """
        statistics = self.statistics
        emitted = 0
        while True:
            best_index, best_score = self._best_queue()
            if best_index is None:
                return  # every queue is exhausted
            if threshold is not None and best_score < threshold:
                # No remaining result can reach the threshold: every member of
                # FD(R) still to be produced has a c-sized witness subset
                # stored in some queue, whose rank bounds the member's rank
                # from below only; monotonicity gives the upper bound via
                # Lemma 5.4.
                return

            complete = self.completes[best_index]
            result = get_next_result(
                self.database,
                self.anchors[best_index],
                self.pools[best_index],
                complete,
                self.scanner,
                statistics,
                self.semantics,
            )
            if result not in complete:
                complete.add(result)
            if result in self.complete:
                # Line 17: the same result was already produced via another
                # queue (or, after ingest, re-derived from an old seed).
                continue
            self.complete.add(result)
            if statistics is not None:
                statistics.results += 1
                statistics.tuple_reads = self.scanner.tuple_reads
                statistics.scan_passes = self.scanner.passes

            score = self.ranking(result)
            if threshold is not None and score < threshold:
                # Possible only through ties at the threshold boundary: the
                # result was produced (and must stay in Complete to suppress
                # re-derivations) but is never emitted — counted in
                # ``results``, not in ``results_emitted``.  Keep scanning,
                # sibling queue tops may still reach the threshold.
                continue
            if statistics is not None:
                statistics.results_emitted += 1
            yield result, score
            self.printed += 1
            emitted += 1
            if k is not None and emitted >= k:
                return

    # ------------------------------------------------------------------ #
    # streaming ingest (ranked delta maintenance)
    # ------------------------------------------------------------------ #
    def ingest(self, fresh_tuples: Sequence[Tuple]) -> int:
        """Seed the live queues with the arrivals' qualifying subsets.

        The tuples must already be in the database (appended through
        :meth:`~repro.relational.database.Database.add_tuple`).  For each
        arrival ``t``, every JCC subset of size ≤ c containing ``t`` is
        pushed into the queue of every relation it holds a tuple of —
        exactly the members the Lines 3–4 initialization would now include
        but did not when the queues were built — and the touched queues are
        re-merged to a fixpoint (Lines 5–8, Remark 4.5).  Returns the number
        of subsets seeded.
        """
        catalog = self.database.catalog()
        seeded = set()
        touched = set()
        for t in fresh_tuples:
            for subset in enumerate_connected_subsets_containing(
                self.database, t, self.ranking.c, catalog=catalog,
                semantics=self.semantics,
            ):
                for index, anchor_name in enumerate(self.anchors):
                    if subset.contains_tuple_from(anchor_name):
                        if subset not in self.pools[index]:
                            self.pools[index].add(subset)
                            seeded.add(subset)
                        touched.add(index)
        for index in touched:
            _merge_queue_members(self.pools[index], self.semantics)
        self.arrivals_seeded += len(fresh_tuples)
        return len(seeded)

    def retract(self, dead_tuples: Sequence[Tuple]) -> List[TupleSet]:
        """Streaming deletion: evict dead queue members, retract dead results.

        The tuples must already be tombstoned in the database's catalog
        (removed through :meth:`~repro.relational.database.Database.remove_tuple`).
        Every queued subset containing a dead tuple is evicted — it could
        never extend into a result of the post-deletion database — and every
        stored result containing one is dropped, from each ``Complete_i``
        and from the printed store, so it stops suppressing the subsets it
        used to cover.  Returns the retracted results in their original
        emission order; re-deriving what the retractions unblock is the
        caller's job (the streaming maintainer extends each retracted
        result's surviving components).
        """
        for pool in self.pools:
            pool.discard_containing(dead_tuples)
        for complete in self.completes:
            complete.retract_containing(dead_tuples)
        return self.complete.retract_containing(dead_tuples)

    def store(self, result: TupleSet) -> None:
        """Record a result derived outside the queues (the streaming
        maintainer's re-derivations) as printed, and in the ``Complete_i`` of
        every relation it holds a tuple of, as a drained run would have it."""
        self.complete.add(result)
        for anchor_name, complete in zip(self.anchors, self.completes):
            if result.contains_tuple_from(anchor_name) and result not in complete:
                complete.add(result)

    def drain_new(self) -> List[RankedResult]:
        """Drain the queues and return the genuinely new results, rank first.

        Old results re-derived from the seeds are suppressed by the store
        of printed results (Line 17); the new ones — all containing an
        arrival, since a maximal set without one was maximal before the
        arrival too — are returned sorted by ``(-score, sort key)``, the
        canonical rank order a full ranked recompute would emit them in.

        Complete only relative to a drained base run: until the base stream
        has been exhausted, the printed store cannot distinguish "new" from
        "not yet derived".
        """
        produced = list(self.results())
        produced.sort(key=canonical_rank_key)
        return produced

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def record_statistics(self) -> None:
        """Flush the store counters into ``statistics.extras`` (delta-safe).

        Charges only the growth since the previous flush, so callers may
        record at every pause point of a resumable run — the generator's
        ``finally``, the maintainer's close — without double-counting.
        """
        if self.statistics is None:
            return
        containers = [("complete", self.complete)]
        containers.extend(("complete", complete) for complete in self.completes)
        containers.extend(("incomplete", pool) for pool in self.pools)
        for prefix, container in containers:
            current = container.statistics.as_dict()
            flushed = self._flushed_totals.setdefault(id(container), {})
            for key, value in current.items():
                delta = value - flushed.get(key, 0)
                if delta:
                    name = f"{prefix}_{key}"
                    self.statistics.extras[name] = (
                        self.statistics.extras.get(name, 0) + delta
                    )
            self._flushed_totals[id(container)] = current


def priority_incremental_fd(
    database: Database,
    ranking: RankingFunction,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    statistics: Optional[FDStatistics] = None,
    semantics=EXACT,
) -> Iterator[RankedResult]:
    """Generate ``FD(R)`` in non-increasing rank order.

    Parameters
    ----------
    database:
        The relations ``R_1, …, R_n``.
    ranking:
        A monotonically c-determined ranking function (otherwise
        :class:`~repro.relational.errors.RankingError` is raised — see
        Proposition 5.1 for why this restriction is necessary).
    k:
        Stop after ``k`` distinct results (the top-``(k, f)`` problem).
        ``None`` means produce the whole full disjunction in ranking order.
    threshold:
        Stop as soon as no remaining result can rank at least ``threshold``
        (the ``(τ, f)``-threshold problem of Remark 5.6).
    statistics:
        Optional counters to fill in.
    semantics:
        :data:`~repro.core.incremental.EXACT`, or an
        :class:`~repro.core.approx.ApproxSemantics` for ranked retrieval of
        ``AFD(R, A, τ)`` (end of Section 6): the queues start from the
        qualifying connected sets of size at most ``c`` and each step is
        ``ApproxGetNextResult``.  Monotonicity of the ranking still makes a
        produced result rank at least as high as the queue entry it grew
        from, so the order argument of Lemma 5.4 carries over.

    Yields
    ------
    (TupleSet, float)
        Each member of ``FD(R)`` (or ``AFD(R, A, τ)``) with its rank,
        highest rank first.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    ranking.require_monotonically_c_determined()
    if k == 0:
        return

    state = PriorityState(database, ranking, statistics=statistics, semantics=semantics)
    try:
        yield from state.results(k=k, threshold=threshold)
    finally:
        # Record store counters on every exit — exhaustion, the k or
        # threshold stop, or an abandoned generator — exactly once.
        state.record_statistics()


def top_k(
    database: Database,
    ranking: RankingFunction,
    k: int,
    statistics: Optional[FDStatistics] = None,
    semantics=EXACT,
) -> List[RankedResult]:
    """The top-``(k, f)`` full-disjunction problem (Theorem 5.5), or its
    approximate counterpart under an approximate ``semantics``."""
    return list(
        priority_incremental_fd(
            database, ranking, k=k, statistics=statistics, semantics=semantics
        )
    )


def above_threshold(
    database: Database,
    ranking: RankingFunction,
    threshold: float,
    statistics: Optional[FDStatistics] = None,
) -> List[RankedResult]:
    """The ``(τ, f)``-threshold full-disjunction problem (Remark 5.6)."""
    return list(
        priority_incremental_fd(database, ranking, threshold=threshold, statistics=statistics)
    )
