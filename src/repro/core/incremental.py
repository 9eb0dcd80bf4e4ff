"""``IncrementalFD`` and ``GetNextResult`` (Figs. 1 and 2 of the paper).

``incremental_fd(database, anchor)`` computes ``FD_i(R)``: the tuple sets of
the full disjunction that contain a tuple of the anchor relation ``R_i``.  It
is a generator — each result is delivered as soon as it is produced, which is
the whole point of the paper: the algorithm runs in *incremental polynomial
time* (Theorem 4.10), so the first ``k`` answers arrive after polynomial work
in the input and ``k``, long before the (possibly exponential) full result is
complete.

The structure follows the paper's pseudocode line by line:

``IncrementalFD(R, i)`` (Fig. 1)
    1.  ``Complete`` ← empty; ``Incomplete`` ← ``{ {t} | t ∈ R_i }``
    2.  while ``Incomplete`` is not empty:
    3.      ``T`` ← ``GetNextResult(R, i, Incomplete, Complete)``
    4.      print ``T``; append ``T`` to ``Complete``

``GetNextResult(R, i, Incomplete, Complete)`` (Fig. 2)
    1.  remove a tuple set ``T`` from ``Incomplete``
    2–6.   extend ``T`` maximally: repeatedly add any tuple ``t_g`` with
           ``JCC(T ∪ {t_g})`` until a full pass adds nothing
    7.  for each tuple ``t_b ∉ T``:
    8.      ``T'`` ← the maximal subset of ``T ∪ {t_b}`` containing ``t_b``
             that is join consistent and connected  (footnote 3)
    9.      if ``T'`` contains a tuple from ``R_i``:
    10–11.      if ``T'`` is contained in a member of ``Complete``: skip
    12–15.      else if some ``S ∈ Incomplete`` has ``JCC(S ∪ T')``:
                    replace ``S`` by ``S ∪ T'``
    16–18.      else: insert ``T'`` into ``Incomplete``
    19. return ``T``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Union,
)

from repro.relational.database import Database
from repro.relational.errors import DatabaseError
from repro.core.store import (
    CompleteStore,
    ListIncompletePool,
    PriorityIncompletePool,
    record_store_statistics,
)
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet


def _is_numeric(value: object) -> bool:
    """True for the accumulating ``extras`` types: int/float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class FDStatistics:
    """Work counters of one ``IncrementalFD`` run (or one pass of the driver).

    ``results`` counts the results *produced* (added to ``Complete``);
    ``results_emitted`` counts the results actually delivered to the caller.
    The two differ where production and delivery diverge: the exact
    full-disjunction driver (a set pass ``i`` produces over ``R_i, …, R_n``
    is dropped when it can absorb a tuple of an earlier relation — see
    :func:`repro.core.full_disjunction.restricted_pass` — and the scan
    counters ``tuple_reads``/``block_reads`` and the ``candidates_*``
    counters then cover ``R_i, …, R_n`` only), the ranked
    threshold path (a result produced at a rank tie straddling the threshold
    boundary is recorded in ``Complete`` — it was derived, and must suppress
    re-derivations — but never emitted) and *unranked* streaming delta
    passes (a re-derived old result is produced again but never re-emitted).
    The ranked engine — delta passes included — follows Fig. 3's Line 17
    convention instead: a duplicate popped through another queue is
    discarded before either counter moves, so ``results`` counts distinct
    productions there.
    """

    results: int = 0
    results_emitted: int = 0
    extension_passes: int = 0
    candidates_generated: int = 0
    candidates_subsumed: int = 0
    candidates_merged: int = 0
    candidates_inserted: int = 0
    candidates_without_anchor: int = 0
    tuple_reads: int = 0
    scan_passes: int = 0
    block_reads: int = 0
    extras: dict = field(default_factory=dict)

    def merge(self, other: "FDStatistics") -> "FDStatistics":
        """Accumulate another statistics object into this one (returns self).

        Numeric ``extras`` values accumulate; any other pairing — strings,
        booleans, or a numeric value meeting a non-numeric one — resolves
        deterministically to the incoming (``other``) value, last writer
        wins.  The distinction matters for cross-process statistics merging,
        where every worker ships its own ``extras`` dict.
        """
        self.results += other.results
        self.results_emitted += other.results_emitted
        self.extension_passes += other.extension_passes
        self.candidates_generated += other.candidates_generated
        self.candidates_subsumed += other.candidates_subsumed
        self.candidates_merged += other.candidates_merged
        self.candidates_inserted += other.candidates_inserted
        self.candidates_without_anchor += other.candidates_without_anchor
        self.tuple_reads += other.tuple_reads
        self.scan_passes += other.scan_passes
        self.block_reads += other.block_reads
        for key, value in other.extras.items():
            existing = self.extras.get(key, 0 if _is_numeric(value) else None)
            if _is_numeric(value) and _is_numeric(existing):
                self.extras[key] = existing + value
            else:
                self.extras[key] = value
        return self

    def as_dict(self) -> dict:
        return {
            "results": self.results,
            "results_emitted": self.results_emitted,
            "extension_passes": self.extension_passes,
            "candidates_generated": self.candidates_generated,
            "candidates_subsumed": self.candidates_subsumed,
            "candidates_merged": self.candidates_merged,
            "candidates_inserted": self.candidates_inserted,
            "candidates_without_anchor": self.candidates_without_anchor,
            "tuple_reads": self.tuple_reads,
            "scan_passes": self.scan_passes,
            "block_reads": self.block_reads,
            **self.extras,
        }


AnchorSpec = Union[int, str]

#: Either of the Incomplete pool implementations accepted by ``get_next_result``.
IncompletePool = Union[ListIncompletePool, PriorityIncompletePool]


def resolve_anchor(database: Database, anchor: AnchorSpec) -> str:
    """Normalise an anchor given as a relation name or a zero-based index."""
    if isinstance(anchor, str):
        if anchor not in database:
            raise DatabaseError(f"no relation named {anchor!r}")
        return anchor
    return database.relation_at(anchor).name


def maximally_extend(
    tuple_set: TupleSet,
    scanner: TupleScanner,
    statistics: Optional[FDStatistics] = None,
) -> TupleSet:
    """Lines 2–6 of ``GetNextResult``: extend ``tuple_set`` with every tuple
    that keeps it join consistent and connected, until a fixpoint.

    The paper scans the whole database repeatedly; since a result holds at
    most one tuple per relation, at most ``n`` passes are needed.
    """
    current = tuple_set
    changed = True
    while changed:
        changed = False
        if statistics is not None:
            statistics.extension_passes += 1
        for candidate in scanner.scan():
            if candidate in current:
                continue
            if current.can_absorb(candidate):
                current = current.with_tuple(candidate)
                changed = True
    return current


def get_next_result(
    database: Database,
    anchor: str,
    incomplete: IncompletePool,
    complete: CompleteStore,
    scanner: Optional[TupleScanner] = None,
    statistics: Optional[FDStatistics] = None,
    anchor_tuples: Optional[AbstractSet] = None,
) -> TupleSet:
    """One call of ``GetNextResult`` (Fig. 2): produce the next result of ``FD_i``.

    The ``incomplete`` pool decides the extraction order: FIFO for plain
    ``IncrementalFD``, highest-rank-first for ``PriorityIncrementalFD``.

    ``anchor_tuples`` restricts the pass to an *anchor bucket range*: when
    given, the Line 9 test requires the candidate's anchor tuple to be a
    member of the set, not merely a tuple of the anchor relation.  This is
    exactly the paper's algorithm run over a database in which ``R_i`` has
    been split into sub-relations — sound because two distinct tuples of one
    relation are never join consistent (so a tuple set holds at most one
    ``R_i`` tuple, every pool merge is anchor-local, and the split pass
    produces precisely the ``FD_i`` members anchored in the range, once
    each).  The sharded backend's bucket-grained fan-out is built on this.
    """
    if scanner is None:
        scanner = TupleScanner(database)

    # Line 1: remove a tuple set from Incomplete.
    result = incomplete.pop()

    # Lines 2-6: extend it maximally.
    result = maximally_extend(result, scanner, statistics)

    # Lines 7-18: derive candidate tuple sets from the tuples left out.
    for outside in scanner.scan():
        if outside in result:
            continue
        candidate = result.maximal_jcc_subset_with(outside)
        if statistics is not None:
            statistics.candidates_generated += 1
        # Line 9: only candidates containing a tuple of the anchor relation
        # (and, under a bucket-range restriction, of the anchor bucket) matter.
        anchor_tuple = candidate.tuple_from(anchor)
        if anchor_tuple is None or (
            anchor_tuples is not None and anchor_tuple not in anchor_tuples
        ):
            if statistics is not None:
                statistics.candidates_without_anchor += 1
            continue
        # Lines 10-11: already covered by a printed result?
        if complete.contains_superset(candidate, anchor=anchor_tuple):
            if statistics is not None:
                statistics.candidates_subsumed += 1
            continue
        # Lines 12-15: can it be merged into a waiting tuple set?
        merged = False
        for waiting in incomplete.candidates(candidate):
            if waiting.union_is_jcc(candidate):
                incomplete.replace(waiting, waiting.union(candidate))
                merged = True
                if statistics is not None:
                    statistics.candidates_merged += 1
                break
        if merged:
            continue
        # Lines 16-18: otherwise it starts a new entry of Incomplete.
        incomplete.add(candidate)
        if statistics is not None:
            statistics.candidates_inserted += 1

    # Line 19.
    return result


#: Signature of the per-iteration callback of ``incremental_fd``.
IterationCallback = Callable[[int, TupleSet, IncompletePool, CompleteStore], None]


def incremental_fd(
    database: Database,
    anchor: AnchorSpec,
    use_index: bool = False,
    scanner: Optional[TupleScanner] = None,
    initial: Optional[Iterable[TupleSet]] = None,
    statistics: Optional[FDStatistics] = None,
    on_initialized: Optional[Callable[[IncompletePool, CompleteStore], None]] = None,
    on_iteration: Optional[IterationCallback] = None,
    complete: Optional[CompleteStore] = None,
    backend=None,
    anchor_tuples: Optional[Iterable] = None,
) -> Iterator[TupleSet]:
    """``IncrementalFD(R, i)`` (Fig. 1): generate ``FD_i(R)`` one tuple set at a time.

    Parameters
    ----------
    database:
        The relations ``R = {R_1, ..., R_n}``.
    anchor:
        The relation ``R_i``: its name or zero-based index.  Every generated
        tuple set contains exactly one tuple of this relation.
    use_index:
        Enable the Section 7 hash index on the ``Complete``/``Incomplete``
        containers.
    scanner:
        How to read ``Tuples(R)``; defaults to a fresh tuple-at-a-time
        scanner.  Pass a :class:`~repro.core.scanner.BlockScanner` for the
        block-based execution of Section 7.
    initial:
        Alternative initialization of ``Incomplete`` (Section 7, "minimizing
        repeated work").  Defaults to the singleton sets ``{t}`` for every
        ``t ∈ R_i``.  The caller is responsible for respecting the conditions
        of Remarks 4.3 and 4.5.
    statistics:
        Optional counters to fill in.
    on_initialized / on_iteration:
        Hooks used by the trace harness (Table 3) and by tests: called after
        initialization and after each result is produced.
    complete:
        An externally managed ``Complete`` store (the Section 7 strategies
        keep one store across all ``n`` passes).  Defaults to a fresh store.
    backend:
        The :class:`~repro.exec.base.ExecutionBackend` (or its name) whose
        ``next_result`` schedules each step; ``None`` is the serial
        reference step, :func:`get_next_result`.
    anchor_tuples:
        Restrict the pass to the *anchor bucket range* holding exactly these
        ``R_i`` tuples: ``Incomplete`` starts from their singletons only and
        the Line 9 test requires the anchor tuple to be one of them.  This
        is the paper's algorithm over a database in which ``R_i`` is split
        into sub-relations (see :func:`get_next_result`), and yields exactly
        the ``FD_i`` members anchored in the range, once each.  The sharded
        backend fans a pass out as one such range per worker task.

    Yields
    ------
    TupleSet
        Each member of ``FD_i(R)``, exactly once (Theorem 4.6).
    """
    anchor_name = resolve_anchor(database, anchor)
    if statistics is not None:
        from repro.core.kernels import tag_kernel

        tag_kernel(statistics)
    if scanner is None:
        scanner = TupleScanner(database)
    catalog = database.catalog()
    if backend is None:
        next_result = get_next_result
    else:
        from repro.exec import resolve_backend

        next_result = resolve_backend(backend).next_result

    bucket = None
    if anchor_tuples is not None:
        bucket = frozenset(anchor_tuples)

    incomplete = ListIncompletePool(anchor_name, use_index=use_index)
    owned_complete = complete is None
    if owned_complete:
        complete = CompleteStore(anchor_name, use_index=use_index)

    # Lines 1-4: initialization of the two lists.  Initial sets are interned
    # against the catalog so every set the run derives from them carries the
    # bitset representation.  Under a bucket restriction the seeds are the
    # bucket's singletons only, in scan order.
    from repro.obs.tracing import trace_span

    with trace_span("engine.initialize", "engine", anchor=anchor_name):
        if initial is None:
            initial = (
                TupleSet.singleton(t, catalog=catalog)
                for t in database.relation(anchor_name)
                if bucket is None or t in bucket
            )
        for tuple_set in initial:
            incomplete.add(tuple_set.attach_catalog(catalog))
    if on_initialized is not None:
        on_initialized(incomplete, complete)

    iteration = 0
    try:
        # Line 5: loop until Incomplete is exhausted.
        while incomplete:
            iteration += 1
            if bucket is None:
                # The positional call keeps custom backends that predate the
                # bucket restriction working unchanged.
                result = next_result(
                    database, anchor_name, incomplete, complete, scanner, statistics
                )
            else:
                result = next_result(
                    database,
                    anchor_name,
                    incomplete,
                    complete,
                    scanner,
                    statistics,
                    anchor_tuples=bucket,
                )
            # Lines 7-8: print the result and remember it in Complete.
            complete.add(result)
            if statistics is not None:
                statistics.results += 1
                statistics.results_emitted += 1
                statistics.tuple_reads = scanner.tuple_reads
                statistics.scan_passes = scanner.passes
            if on_iteration is not None:
                on_iteration(iteration, result, incomplete, complete)
            yield result
    finally:
        # Record store counters on every exit — exhaustion, an abandoned
        # generator (first-k retrieval) or an error — exactly once.
        if owned_complete:
            record_store_statistics(
                statistics, ("incomplete", incomplete), ("complete", complete)
            )
        else:
            # A shared Complete store is recorded by its owner, once.
            record_store_statistics(statistics, ("incomplete", incomplete))
