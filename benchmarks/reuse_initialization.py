"""The Section 7 reuse strategies ("Minimizing repeated work"): E7's and E1's comparison arm.

Computing ``FD(R)`` runs ``IncrementalFD`` once per relation, and pass ``i``
scans only ``R_i, …, R_n``.  The library seeds every pass with the
singletons of ``R_i`` (Fig. 1) and drops a result that can absorb a live
tuple of an earlier relation (:func:`repro.core.full_disjunction.restricted_pass`).
Section 7 proposes two other seedings, which reuse the answers of the
earlier passes:

``previous-results``
    Seed pass ``i`` with the previously returned tuple sets that contain a
    tuple of ``R_i``, plus singletons for the tuples of ``R_i`` that no
    previous result covers.

``reduced-previous``
    Take the previously returned tuple sets, drop their tuples of earlier
    relations, keep those that still contain a tuple of ``R_i``, extend them
    greedily with tuples of later relations only, add singletons for the
    uncovered ``R_i`` tuples, and remove the seeds contained in other seeds.

Every seeding must respect the conditions of Remarks 4.3 and 4.5:

(i)   every initial tuple set is join consistent and connected;
(ii)  every tuple of ``R_i`` appears in some initial tuple set;
(iii) no two initial tuple sets are contained in the same member of ``FD_i``.

A reused seed can grow into a set that is not maximal in ``FD(R)``, because
its maximal extension goes through an earlier relation.  So the passes of
:func:`reusing_full_disjunction` share one ``Complete`` store, and
``incremental_fd`` yields only the results no earlier answer covers (its
shared-``Complete`` rule).

Neither strategy wins: the singleton passes drop at most one set per
earlier answer, so there is no repeated work left to save.  E7 measures
``previous-results`` producing 2.5× the sets of the singletons, and
``reduced-previous`` doing the same counted work but spending time on its
seeds; both emit the answers in another order.  This module is not part of
the library.  The benchmarks import it as a sibling module, and the tests
load it by path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.scanner import earlier_relations, make_scanner, require_current
from repro.core.store import CompleteStore, record_store_statistics
from repro.core.tupleset import TupleSet
from repro.obs.tracing import trace_span
from repro.relational.database import Database
from repro.relational.tuples import Tuple


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


def restrict_to_relations(tuple_set: TupleSet, relation_names: Iterable[str]) -> TupleSet:
    """The members of ``tuple_set`` that belong to the given relations."""
    wanted = set(relation_names)
    return TupleSet(
        (t for t in tuple_set if t.relation_name in wanted), tuple_set.catalog
    )


def reduced_previous_sets(
    database: Database,
    anchor_name: str,
    previous_results: Sequence[TupleSet],
    catalog,
) -> List[TupleSet]:
    """Third strategy: reduce previous results to later relations and re-extend them."""
    anchor_index = database.index_of(anchor_name)
    later = {relation.name for relation in database.relations[anchor_index + 1:]}
    keep_relations = {relation.name for relation in database.relations[anchor_index:]}

    candidates: List[TupleSet] = []
    for result in previous_results:
        reduced = restrict_to_relations(result, keep_relations)
        if not reduced.contains_tuple_from(anchor_name):
            continue
        if not reduced.is_jcc:
            # Dropping the earlier relations may disconnect the set; keep the
            # connected component of the anchor tuple, which is JCC.
            anchor_tuple = reduced.tuple_from(anchor_name)
            others = reduced.difference(TupleSet.singleton(anchor_tuple, reduced.catalog))
            reduced = others.maximal_jcc_subset_with(anchor_tuple)
        candidates.append(_greedy_extend(reduced, database, later))

    covered = covered_tuples(previous_results, anchor_name)
    for t in database.relation(anchor_name):
        if t not in covered:
            candidates.append(TupleSet.singleton(t, catalog))

    # Remove initial sets contained in another initial set (retains the O(f)
    # space bound, as the paper notes), and drop duplicates.
    unique: List[TupleSet] = list(dict.fromkeys(candidates))
    return [
        candidate
        for idx, candidate in enumerate(unique)
        if not any(
            idx != jdx and candidate.issubset(other) for jdx, other in enumerate(unique)
        )
    ]


#: The seeding of each reuse strategy, by the name E7 reports.
STRATEGIES = {
    "previous-results": previous_results_sets,
    "reduced-previous": reduced_previous_sets,
}


def reusing_full_disjunction(
    database: Database,
    strategy: str,
    block_size: Optional[int] = None,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleSet]:
    """``FD(R)`` with pass ``i`` seeded by ``strategy`` from the earlier answers.

    Pass ``i`` is ``IncrementalFD`` for ``R_i`` over ``R_≥i``.  All passes
    share one ``Complete`` store, so a pass yields only the results no
    earlier answer covers.  The passes depend on each other, so they run one
    after another.  Like
    :func:`~repro.core.full_disjunction.full_disjunction_sets`, the run
    keeps the catalog it starts with (a rebuild under it makes the next pass
    raise ``DatabaseError``), traces one ``engine.pass`` span per relation
    and counts the same ``statistics``; the shared store's counters are
    recorded once, on every exit.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown reuse strategy {strategy!r}; expected one of {tuple(STRATEGIES)}"
        )
    seed = STRATEGIES[strategy]
    produced: List[TupleSet] = []
    catalog = database.catalog()
    shared_complete = CompleteStore(anchor_relation=None)
    try:
        for relation in database.relations:
            anchor_name = relation.name
            require_current(database, catalog)
            with trace_span("engine.pass", "engine", anchor=anchor_name):
                scanner = make_scanner(
                    database, block_size, earlier_relations(database, anchor_name)
                )
                pass_statistics = FDStatistics() if statistics is not None else None
                results = incremental_fd(
                    database,
                    anchor_name,
                    scanner=scanner,
                    initial=seed(database, anchor_name, produced, catalog),
                    statistics=pass_statistics,
                    complete=shared_complete,
                )
                try:
                    for result in results:
                        produced.append(result)
                        yield result
                finally:
                    # Close the pass first: its store counters land in pass_statistics.
                    results.close()
                    if pass_statistics is not None:
                        pass_statistics.block_reads = getattr(scanner, "block_reads", 0)
                        statistics.merge(pass_statistics)
    finally:
        record_store_statistics(statistics, ("complete", shared_complete))
