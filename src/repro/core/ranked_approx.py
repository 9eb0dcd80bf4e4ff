"""Ranked retrieval of approximate full disjunctions.

The end of Section 6 notes that ``ApproxIncrementalFD`` "can also be adapted
to return tuples in ranking order, for a monotonically c-determined ranking
function … by adapting it in the spirit of PriorityIncrementalFD".  This
module is that adaptation: per-relation priority queues seeded with every
connected tuple set of size at most ``c`` that qualifies under the approximate
join function, a shared ``Complete`` store, and extraction by highest rank,
with ``ApproxGetNextResult`` (``get_next_result`` under
:class:`~repro.core.approx.ApproxSemantics`) doing the per-step work.

The correctness ingredients are the same as for the exact ranked algorithm:

* every member of ``AFD(R, A, τ)`` has a connected witness subset of size at
  most ``c`` with the same rank (c-determination); the witness qualifies under
  ``A`` because ``A`` is acceptable, so it is present in some queue after
  initialization;
* monotonicity of the ranking makes the rank of a produced (maximal) result
  at least the rank of the queue entry it grew from, so results come out in
  non-increasing rank order (the argument of Lemma 5.4).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Set, Tuple as TupleType

from repro.relational.database import Database
from repro.core.approx import ApproxSemantics
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.incremental import FDStatistics, get_next_result
from repro.core.store import CompleteStore, PriorityIncompletePool, record_store_statistics
from repro.core.ranking import RankingFunction
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet

#: A ranked approximate result: the tuple set with its rank.
RankedResult = TupleType[TupleSet, float]


def enumerate_qualifying_subsets(
    database: Database,
    anchor_name: str,
    max_size: int,
    join_function: ApproximateJoinFunction,
    threshold: float,
    catalog=None,
) -> Iterator[TupleSet]:
    """Connected tuple sets of size ≤ ``max_size`` containing an ``R_i`` tuple with ``A ≥ τ``.

    Because ``A`` is acceptable (anti-monotone on connected sets), growing
    sets one tuple at a time and pruning as soon as the value drops below the
    threshold enumerates every qualifying set.
    """
    all_tuples = list(database.tuples())
    seen: Set[TupleSet] = set()
    frontier: List[TupleSet] = []
    for t in database.relation(anchor_name):
        singleton = TupleSet.singleton(t, catalog=catalog)
        if join_function(singleton) >= threshold:
            seen.add(singleton)
            frontier.append(singleton)
            yield singleton
    for _ in range(max_size - 1):
        next_frontier: List[TupleSet] = []
        for current in frontier:
            for t in all_tuples:
                if t in current or t.relation_name in current.relations:
                    continue
                grown = current.with_tuple(t)
                if grown in seen or not grown.is_connected:
                    continue
                if join_function(grown) < threshold:
                    continue
                seen.add(grown)
                next_frontier.append(grown)
                yield grown
        frontier = next_frontier


def _merge_queue_members(
    pool: PriorityIncompletePool,
    join_function: ApproximateJoinFunction,
    threshold: float,
) -> None:
    """Merge queue members whose union still qualifies, to a fixpoint."""
    changed = True
    while changed:
        changed = False
        members: List[TupleSet] = list(pool)
        for index, first in enumerate(members):
            if first not in pool:
                continue
            for second in members[index + 1:]:
                if second not in pool or first not in pool:
                    continue
                if first == second:
                    continue
                union = first.union(second)
                if union.is_connected and join_function(union) >= threshold:
                    pool.replace(first, union)
                    if second in pool and second != union:
                        pool.replace(second, union)
                    changed = True
                    first = union


def ranked_approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    ranking: RankingFunction,
    k: Optional[int] = None,
    rank_threshold: Optional[float] = None,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[RankedResult]:
    """Generate ``AFD(R, A, τ)`` in non-increasing rank order.

    Parameters mirror :func:`repro.core.priority.priority_incremental_fd`,
    with the approximate join function and its threshold added.  ``k`` limits
    the number of results; ``rank_threshold`` stops once no remaining result
    can rank that high (the approximate analogue of Remark 5.6).  ``backend``
    schedules each step through the execution layer (:mod:`repro.exec`); the
    output order is backend-independent.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    ranking.require_monotonically_c_determined()
    if k == 0:
        return
    if backend is None:
        next_result = get_next_result
    else:
        from repro.exec import resolve_backend

        next_result = resolve_backend(backend).next_result

    catalog = database.catalog()
    pools: List[PriorityIncompletePool] = []
    anchors = [relation.name for relation in database.relations]
    for relation in database.relations:
        pool = PriorityIncompletePool(relation.name, ranking, use_index=use_index)
        for tuple_set in enumerate_qualifying_subsets(
            database, relation.name, ranking.c, join_function, threshold, catalog=catalog
        ):
            pool.add(tuple_set)
        _merge_queue_members(pool, join_function, threshold)
        pools.append(pool)

    complete = CompleteStore(anchor_relation=None, use_index=use_index)
    scanner = TupleScanner(database)

    try:
        yield from _ranked_approx_loop(
            database, join_function, threshold, ranking, pools, anchors,
            complete, scanner, k, rank_threshold, statistics, next_result,
        )
    finally:
        # Record store counters on every exit — exhaustion, the k or
        # rank-threshold stop, or an abandoned generator — exactly once.
        record_store_statistics(
            statistics, ("complete", complete), *(("incomplete", p) for p in pools)
        )


def _ranked_approx_loop(
    database,
    join_function,
    threshold,
    ranking,
    pools,
    anchors,
    complete,
    scanner,
    k,
    rank_threshold,
    statistics,
    next_result=get_next_result,
):
    semantics = ApproxSemantics(join_function, threshold)
    printed = 0
    while True:
        best_index = None
        best_score = None
        for index, pool in enumerate(pools):
            score = pool.peek_score()
            if score is None:
                continue
            if best_score is None or score > best_score:
                best_score = score
                best_index = index
        if best_index is None:
            return
        if rank_threshold is not None and best_score < rank_threshold:
            return

        result = next_result(
            database,
            anchors[best_index],
            pools[best_index],
            complete,
            scanner,
            statistics,
            semantics=semantics,
        )
        if result in complete:
            continue
        complete.add(result)
        if statistics is not None:
            statistics.results += 1

        score = ranking(result)
        if rank_threshold is not None and score < rank_threshold:
            continue
        yield result, score
        printed += 1
        if k is not None and printed >= k:
            return


def approx_top_k(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    ranking: RankingFunction,
    k: int,
    use_index: bool = False,
    backend=None,
) -> List[RankedResult]:
    """The top-``(k, f)`` problem over the ``(A, τ)``-approximate full disjunction."""
    return list(
        ranked_approx_full_disjunction(
            database, join_function, threshold, ranking, k=k, use_index=use_index,
            backend=backend,
        )
    )
