"""Initialization strategies for ``Incomplete`` (Section 7, "Minimizing repeated work").

Computing the whole full disjunction runs ``IncrementalFD`` once per relation.
Run over the whole database, pass ``i`` would re-derive every answer that
holds a tuple of ``R_i`` and of an earlier relation; Section 7 notes that pass
``i`` only needs ``R_i, …, R_n``, and proposes alternative initializations of
``Incomplete`` that reuse the results of previous passes.  All
initializations must respect the conditions of Remarks 4.3 and 4.5:

(i)   every initial tuple set is join consistent and connected;
(ii)  every tuple of ``R_i`` appears in some initial tuple set;
(iii) no two initial tuple sets are contained in the same member of ``FD_i``.

Three strategies are provided (the names follow the paper's enumeration):

``singletons``
    The default of Fig. 1: ``{t}`` for every ``t ∈ R_i``.  Every pass is
    independent and, like the reuse strategies, scans only ``R_i, …, R_n``;
    a result is dropped when it can absorb a live tuple of an earlier
    relation, because it is then part of an answer an earlier pass emitted
    (see :func:`repro.core.full_disjunction.restricted_pass`).

``previous-results``
    The paper's second option: seed pass ``i`` with the previously returned
    tuple sets that contain a tuple of ``R_i``, plus singletons for the tuples
    of ``R_i`` not covered by any previous result.  ``Complete`` is shared
    across passes and the scan loops skip the relations ``R_1,…,R_{i-1}``.

``reduced-previous``
    The paper's third option: take the previously returned tuple sets, drop
    their tuples of earlier relations, keep those that still contain a tuple
    of ``R_i``, extend them greedily using only tuples of later relations, add
    singletons for uncovered ``R_i`` tuples and remove initial sets contained
    in other initial sets.

With the two reuse strategies a produced result may fail to be maximal in the
full disjunction (its maximal extension goes through an earlier relation); the
driver therefore filters results that are contained in a previously printed
result, as prescribed by the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.relational.database import Database
from repro.relational.tuples import Tuple
from repro.core.tupleset import TupleSet

#: Names of the supported strategies, in the order the paper presents them.
STRATEGIES = ("singletons", "previous-results", "reduced-previous")


def singleton_sets(database: Database, anchor_name: str, catalog) -> List[TupleSet]:
    """The default initialization: ``{t}`` for every ``t ∈ R_i``."""
    return [TupleSet.singleton(t, catalog) for t in database.relation(anchor_name)]


def covered_tuples(previous_results: Iterable[TupleSet], anchor_name: str) -> Set[Tuple]:
    """The tuples of ``R_i`` appearing in some previously returned tuple set."""
    covered: Set[Tuple] = set()
    for result in previous_results:
        member = result.tuple_from(anchor_name)
        if member is not None:
            covered.add(member)
    return covered


def previous_results_sets(
    database: Database,
    anchor_name: str,
    previous_results: Sequence[TupleSet],
    catalog,
) -> List[TupleSet]:
    """Second strategy: previous results with an ``R_i`` tuple + uncovered singletons."""
    initial: List[TupleSet] = [
        result for result in previous_results if result.contains_tuple_from(anchor_name)
    ]
    covered = covered_tuples(previous_results, anchor_name)
    for t in database.relation(anchor_name):
        if t not in covered:
            initial.append(TupleSet.singleton(t, catalog))
    return initial


def _greedy_extend(
    seed: TupleSet,
    database: Database,
    allowed_relations: Set[str],
) -> TupleSet:
    """Extend ``seed`` maximally using only tuples of ``allowed_relations``."""
    current = seed
    changed = True
    while changed:
        changed = False
        for relation in database:
            if relation.name not in allowed_relations:
                continue
            for t in relation:
                if t not in current and current.can_absorb(t):
                    current = current.with_tuple(t)
                    changed = True
    return current


def reduced_previous_sets(
    database: Database,
    anchor_name: str,
    previous_results: Sequence[TupleSet],
    catalog,
) -> List[TupleSet]:
    """Third strategy: reduce previous results to later relations and re-extend them."""
    anchor_index = database.index_of(anchor_name)
    earlier = {relation.name for relation in database.relations[:anchor_index]}
    later = {relation.name for relation in database.relations[anchor_index + 1:]}
    keep_relations = {relation.name for relation in database.relations[anchor_index:]}

    candidates: List[TupleSet] = []
    for result in previous_results:
        reduced = result.restrict_to_relations(keep_relations)
        if not reduced.contains_tuple_from(anchor_name):
            continue
        if len(reduced) == 0:
            continue
        if not reduced.is_jcc:
            # Dropping the earlier relations may disconnect the set; keep the
            # connected component of the anchor tuple, which is JCC.
            anchor_tuple = reduced.tuple_from(anchor_name)
            others = reduced.difference(TupleSet.singleton(anchor_tuple, reduced.catalog))
            reduced = others.maximal_jcc_subset_with(anchor_tuple)
        extended = _greedy_extend(reduced, database, later)
        candidates.append(extended)

    covered = covered_tuples(previous_results, anchor_name)
    for t in database.relation(anchor_name):
        if t not in covered:
            candidates.append(TupleSet.singleton(t, catalog))

    # Remove initial sets contained in another initial set (retains the O(f)
    # space bound, as the paper notes), and drop duplicates.
    unique: List[TupleSet] = []
    seen = set()
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        unique.append(candidate)
    kept: List[TupleSet] = []
    for idx, candidate in enumerate(unique):
        contained = any(
            idx != jdx and candidate.issubset(other) for jdx, other in enumerate(unique)
        )
        if not contained:
            kept.append(candidate)
    return kept


def initial_sets(
    strategy: str,
    database: Database,
    anchor_name: str,
    previous_results: Sequence[TupleSet],
    catalog,
) -> List[TupleSet]:
    """Dispatch to the initialization strategy named ``strategy``.

    ``catalog`` is the run's: the new seed sets are interned in it, and the
    previous results must be of it too.
    """
    if strategy == "singletons":
        return singleton_sets(database, anchor_name, catalog)
    if strategy == "previous-results":
        return previous_results_sets(database, anchor_name, previous_results, catalog)
    if strategy == "reduced-previous":
        return reduced_previous_sets(database, anchor_name, previous_results, catalog)
    raise ValueError(
        f"unknown initialization strategy {strategy!r}; expected one of {STRATEGIES}"
    )


def earlier_relations(database: Database, anchor_name: str) -> Set[str]:
    """The names of the relations preceding ``anchor_name`` in database order."""
    anchor_index = database.index_of(anchor_name)
    return {relation.name for relation in database.relations[:anchor_index]}
