"""The outerjoin-sequence baseline of Rajaraman & Ullman [2].

Reference [2] computes the full disjunction of a *γ-acyclic* set of relations
by a sequence of binary full outerjoins (followed by removal of subsumed
rows).  The approach breaks down outside the γ-acyclic class — no outerjoin
order produces the full disjunction — which is exactly why the paper's
algorithm, applicable to arbitrary connected relations, is needed.

To compare against ``IncrementalFD`` at the tuple-set level, the outerjoin
here is computed over *provenance-carrying rows*: every intermediate row
remembers the set of source tuples it was assembled from, so the final result
is a set of tuple sets directly comparable with ``FD(R)``.

Two entry points:

* :func:`outerjoin_sequence` — evaluate the outerjoin sequence for a given
  relation order and return the resulting maximal tuple sets;
* :func:`exists_correct_outerjoin_order` — search all relation orders for one
  whose outerjoin sequence equals a reference result (used by experiment E9 to
  show that some order works on γ-acyclic schemas and none works on a cyclic
  one).
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Set

from repro.relational.database import Database
from repro.relational.nulls import NULL, is_null
from repro.core.tupleset import TupleSet


def _padded_value(tuple_set: TupleSet, attribute: str) -> object:
    """The value of ``attribute`` in the padded row of ``tuple_set``: a
    member's non-null value, else null."""
    for t in tuple_set:
        if t.has_attribute(attribute) and not is_null(t[attribute]):
            return t[attribute]
    return NULL


def _combines(tuple_set: TupleSet, accumulated_attributes: Set[str], candidate) -> bool:
    """Outerjoin match condition between a padded row and a new tuple.

    The natural-join predicate over the attributes shared by the accumulated
    schema and the candidate's schema: both sides non-null and equal.  Nulls
    never match, as in the paper (and in SQL).
    """
    shared = accumulated_attributes & set(candidate.schema.attribute_set)
    if not shared:
        return False
    for attribute in shared:
        mine = _padded_value(tuple_set, attribute)
        theirs = candidate[attribute]
        if is_null(mine) or is_null(theirs) or mine != theirs:
            return False
    return True


def _remove_subsumed(tuple_sets: Iterable[TupleSet]) -> List[TupleSet]:
    unique: List[TupleSet] = []
    seen = set()
    for tuple_set in tuple_sets:
        if tuple_set not in seen and len(tuple_set) > 0:
            seen.add(tuple_set)
            unique.append(tuple_set)
    maximal: List[TupleSet] = []
    for candidate in unique:
        if any(candidate != other and candidate.issubset(other) for other in unique):
            continue
        maximal.append(candidate)
    return maximal


def outerjoin_sequence(
    database: Database,
    order: Optional[Sequence[str]] = None,
) -> List[TupleSet]:
    """Evaluate ``(((R_{o1} ⟗ R_{o2}) ⟗ R_{o3}) ⟗ …)`` and return maximal tuple sets.

    ``order`` lists relation names; it defaults to database order.  The
    result is cleaned of subsumed tuple sets, as [2] prescribes, so on
    γ-acyclic schemas (and a suitable order) it equals ``FD(R)``.
    """
    if order is None:
        order = database.relation_names
    if set(order) != set(database.relation_names) or len(order) != len(database):
        raise ValueError(
            f"order {list(order)!r} is not a permutation of the database relations"
        )

    catalog = database.catalog()
    first_relation = database.relation(order[0])
    state: List[TupleSet] = [TupleSet.singleton(t, catalog) for t in first_relation]
    accumulated_attributes: Set[str] = set(first_relation.schema.attribute_set)

    for name in order[1:]:
        relation = database.relation(name)
        next_state: List[TupleSet] = []
        matched_right = set()
        for tuple_set in state:
            matched = False
            for candidate in relation:
                if _combines(tuple_set, accumulated_attributes, candidate):
                    matched = True
                    matched_right.add(candidate)
                    next_state.append(tuple_set.with_tuple(candidate))
            if not matched:
                next_state.append(tuple_set)
        for candidate in relation:
            if candidate not in matched_right:
                next_state.append(TupleSet.singleton(candidate, catalog))
        state = next_state
        accumulated_attributes |= set(relation.schema.attribute_set)

    return _remove_subsumed(state)


def exists_correct_outerjoin_order(
    database: Database,
    reference: Iterable[TupleSet],
    max_orders: Optional[int] = None,
) -> Optional[List[str]]:
    """Search for an outerjoin order whose result equals ``reference``.

    Returns the first matching order, or ``None`` when no order works (which
    is what happens beyond the γ-acyclic class).  ``max_orders`` caps the
    number of permutations tried, for large databases.
    """
    target = frozenset(reference)
    tried = 0
    for order in itertools.permutations(database.relation_names):
        if max_orders is not None and tried >= max_orders:
            return None
        tried += 1
        produced = frozenset(outerjoin_sequence(database, list(order)))
        if produced == target:
            return list(order)
    return None
