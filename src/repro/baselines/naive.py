"""Brute-force full disjunction: the correctness oracle.

The full disjunction is, by Definition 2.1, exactly the set of *maximal* JCC
tuple sets.  This module materialises every JCC tuple set by breadth-first
growth from singletons and keeps the maximal ones.  The cost is exponential in
the number of relations, which is fine for the small instances used in tests
(and is precisely why the paper's algorithm exists).

The oracle shares no predicate with the engine.  It grows plain frozensets
of tuples, decides join consistency pair by pair
(:meth:`~repro.relational.tuples.Tuple.join_consistent_with`) and
connectivity by a breadth-first search over the members' schemas, and
builds a :class:`~repro.core.tupleset.TupleSet` only for each answer it
returns.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

from repro.relational.database import Database
from repro.relational.tuples import Tuple
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.tupleset import TupleSet

Members = FrozenSet[Tuple]


def _connected(members: Members) -> bool:
    """No two members of one relation, and the members' schemas form a
    connected graph (breadth-first search from one member)."""
    pending = list(members)
    if len({t.relation_name for t in pending}) != len(pending):
        return False
    if not pending:
        return True
    reached = [pending.pop()]
    for current in reached:  # the list grows as the search reaches members
        linked = [t for t in pending if current.connects_to(t)]
        reached.extend(linked)
        pending = [t for t in pending if t not in linked]
    return not pending


def _jcc(members: Members) -> bool:
    """``JCC``: every pair of members join consistent, and connected."""
    ordered = list(members)
    return _connected(members) and all(
        first.join_consistent_with(second)
        for index, first in enumerate(ordered)
        for second in ordered[index + 1:]
    )


def _grow(database: Database, keep) -> Set[Members]:
    """Every non-empty member set that ``keep`` accepts, grown breadth
    first from the accepted singletons one tuple at a time."""
    all_tuples = list(database.tuples())
    frontier = [frozenset((t,)) for t in all_tuples if keep(frozenset((t,)))]
    seen: Set[Members] = set(frontier)
    while frontier:
        next_frontier: List[Members] = []
        for current in frontier:
            for t in all_tuples:
                if t in current:
                    continue
                grown = current | {t}
                if grown not in seen and keep(grown):
                    seen.add(grown)
                    next_frontier.append(grown)
        frontier = next_frontier
    return seen


def _answers(database: Database, member_sets: Iterable[Members]) -> List[TupleSet]:
    """The given member sets as tuple sets of the database's catalog, in
    sort-key order."""
    catalog = database.catalog()
    tuple_sets = [TupleSet(members, catalog) for members in member_sets]
    return sorted(tuple_sets, key=lambda ts: ts.sort_key())


def _keep_maximal(member_sets: Set[Members]) -> List[Members]:
    return [
        candidate
        for candidate in member_sets
        if not any(candidate < other for other in member_sets)
    ]


def all_jcc_tuple_sets(database: Database) -> List[TupleSet]:
    """Every non-empty JCC tuple set of the database (exponential!)."""
    return _answers(database, _grow(database, _jcc))


def naive_full_disjunction(database: Database) -> List[TupleSet]:
    """``FD(R)`` by brute force: all JCC tuple sets, keeping only the maximal ones."""
    return _answers(database, _keep_maximal(_grow(database, _jcc)))


def _approx_sets(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
) -> Set[Members]:
    catalog = database.catalog()

    def qualifies(members: Members) -> bool:
        return _connected(members) and join_function(TupleSet(members, catalog)) >= threshold

    return _grow(database, qualifies)


def all_approx_tuple_sets(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
) -> List[TupleSet]:
    """Every non-empty connected tuple set with ``A(T) ≥ τ`` (exponential!).

    Acceptability of ``A`` makes breadth-first growth complete: every
    qualifying set can be reached through qualifying subsets.
    """
    return _answers(database, _approx_sets(database, join_function, threshold))


def naive_approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
) -> List[TupleSet]:
    """``AFD(R, A, τ)`` by brute force (the approximate correctness oracle)."""
    return _answers(
        database, _keep_maximal(_approx_sets(database, join_function, threshold))
    )
