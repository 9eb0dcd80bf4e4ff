"""``ApproxIncrementalFD`` and ``ApproxGetNextResult`` (Figs. 5 and 6).

Given an *acceptable* and *efficiently computable* approximate join function
``A`` (see :mod:`repro.core.approx_join`) and a threshold ``τ``, the
``(A, τ)``-approximate full disjunction ``AFD(R, A, τ)`` (Definition 6.2)
contains the maximal tuple sets ``T`` with ``A(T) ≥ τ``.  The algorithms here
compute it in incremental polynomial time (Theorem 6.6), mirroring the exact
algorithms with three changes, marked ``*`` in the paper's figures:

* initialization only admits singletons ``{t}`` with ``A({t}) ≥ τ``;
* every ``JCC(·)`` test becomes ``A(·) ≥ τ``;
* Line 8 may yield *several* maximal candidate subsets per outside tuple
  (Example 6.3), supplied by ``A.candidate_extensions``.

``ApproxGetNextResult`` is :func:`repro.core.incremental.get_next_result`
under :class:`ApproxSemantics`: the starred steps differ, Lines 1 and 10–19
are the exact algorithm's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.relational.tuples import Tuple
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.incremental import (
    AnchorSpec,
    FDStatistics,
    anchored_candidates,
    get_next_result,
    resolve_anchor,
)
from repro.core.store import CompleteStore, ListIncompletePool, record_store_statistics
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet


def approx_maximally_extend(
    tuple_set: TupleSet,
    join_function: ApproximateJoinFunction,
    threshold: float,
    scanner: TupleScanner,
    statistics: Optional[FDStatistics] = None,
) -> TupleSet:
    """Lines 2–6 of ``ApproxGetNextResult``: extend while ``A(T ∪ {t_g}) ≥ τ``.

    Because ``A`` is acceptable, any maximal set of ``AFD`` that contains the
    current set can be reached by such single-tuple steps, so the fixpoint is
    maximal (see the discussion after Definition 6.4).
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
            if candidate.relation_name in current.relations:
                continue
            grown = current.with_tuple(candidate)
            if grown.is_connected and join_function(grown) >= threshold:
                current = grown
                changed = True
    return current


def approx_line9_candidates(
    result: TupleSet,
    anchor: str,
    join_function: ApproximateJoinFunction,
    threshold: float,
    scanner: TupleScanner,
    statistics: Optional[FDStatistics] = None,
    anchor_tuples=None,
) -> Iterator[TupleType[TupleSet, Tuple]]:
    """Lines 7–9 (starred): ``(T', anchor tuple)`` for the candidates that
    pass Line 9, in scan order, counted by :func:`anchored_candidates`."""

    def candidates():
        for outside in scanner.scan():
            if outside in result:
                continue
            # Line 8 (starred): all maximal qualifying subsets containing t_b.
            yield from join_function.candidate_extensions(result, outside, threshold)

    return anchored_candidates(candidates(), anchor, statistics, anchor_tuples)


class ApproxSemantics:
    """The ``(A, τ)`` semantics of ``ApproxGetNextResult`` (Fig. 6).

    Passed as ``semantics`` to :func:`repro.core.incremental.get_next_result`,
    it supplies the starred steps: Lines 2–6 extend while ``A(T ∪ {t_g}) ≥
    τ``, Line 8 yields every maximal qualifying subset, and Line 14 merges
    ``S`` and ``T'`` when ``S ∪ T'`` is connected and ``A(S ∪ T') ≥ τ``.
    """

    def __init__(self, join_function: ApproximateJoinFunction, threshold: float):
        self.join_function = join_function
        self.threshold = threshold

    def extend(self, tuple_set, scanner, statistics):
        return approx_maximally_extend(
            tuple_set, self.join_function, self.threshold, scanner, statistics
        )

    def survivors(self, result, anchor, scanner, statistics, anchor_tuples):
        """Never on masks: the starred Line 8 scores each outside tuple."""
        return None

    def candidates(self, result, anchor, scanner, statistics, anchor_tuples):
        return approx_line9_candidates(
            result, anchor, self.join_function, self.threshold, scanner,
            statistics, anchor_tuples,
        )

    def mergeable(self, waiting: TupleSet, candidate: TupleSet) -> bool:
        union = waiting.union(candidate)
        return union.is_connected and self.join_function(union) >= self.threshold


def approx_incremental_fd(
    database: Database,
    anchor: AnchorSpec,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    scanner: Optional[TupleScanner] = None,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[TupleSet]:
    """``ApproxIncrementalFD(R, i, A, τ)`` (Fig. 5): generate ``AFD_i(R, A, τ)``.

    Each step is :func:`~repro.core.incremental.get_next_result` under
    :class:`ApproxSemantics`, scheduled by ``backend``'s ``next_result``
    (:mod:`repro.exec`); ``None`` is the serial step.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    anchor_name = resolve_anchor(database, anchor)
    if scanner is None:
        scanner = TupleScanner(database)
    catalog = database.catalog()
    if backend is None:
        next_result = get_next_result
    else:
        from repro.exec import resolve_backend

        next_result = resolve_backend(backend).next_result
    semantics = ApproxSemantics(join_function, threshold)

    incomplete = ListIncompletePool(anchor_name, use_index=use_index)
    complete = CompleteStore(anchor_name, use_index=use_index)

    # Lines 1-4 (starred line 3): only singletons that themselves qualify.
    for t in database.relation(anchor_name):
        singleton = TupleSet.singleton(t, catalog=catalog)
        if join_function(singleton) >= threshold:
            incomplete.add(singleton)

    try:
        while incomplete:
            result = next_result(
                database,
                anchor_name,
                incomplete,
                complete,
                scanner,
                statistics,
                semantics=semantics,
            )
            complete.add(result)
            if statistics is not None:
                statistics.results += 1
                statistics.tuple_reads = scanner.tuple_reads
                statistics.scan_passes = scanner.passes
            yield result
    finally:
        # Record store counters on every exit, including abandonment.
        record_store_statistics(
            statistics, ("incomplete", incomplete), ("complete", complete)
        )


def approx_full_disjunction_sets(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> Iterator[TupleSet]:
    """Generate every member of ``AFD(R, A, τ)`` exactly once (Corollary 6.7).

    The independent per-relation ``ApproxIncrementalFD`` passes are scheduled
    by ``backend`` (``None`` means the serial reference), exactly like the
    exact driver's singleton passes — the sharded backend fans them out to
    its process pool.
    """
    from repro.exec import resolve_backend

    backend = resolve_backend(backend)
    yield from backend.run_approx_passes(
        database,
        join_function,
        threshold,
        use_index=use_index,
        statistics=statistics,
    )


def approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
    backend=None,
) -> List[TupleSet]:
    """Materialise ``AFD(R, A, τ)`` as a list of tuple sets."""
    return list(
        approx_full_disjunction_sets(
            database,
            join_function,
            threshold,
            use_index=use_index,
            statistics=statistics,
            backend=backend,
        )
    )


class ApproximateFullDisjunction:
    """High-level handle on the ``(A, τ)``-approximate full disjunction."""

    def __init__(
        self,
        database: Database,
        join_function: ApproximateJoinFunction,
        threshold: float,
        use_index: bool = False,
        backend=None,
    ):
        self._database = database
        self._join_function = join_function
        self._threshold = threshold
        self._use_index = use_index
        self._backend = backend
        self.statistics = FDStatistics()
        self._cached: Optional[List[TupleSet]] = None

    @property
    def threshold(self) -> float:
        return self._threshold

    def __iter__(self) -> Iterator[TupleSet]:
        return approx_full_disjunction_sets(
            self._database,
            self._join_function,
            self._threshold,
            use_index=self._use_index,
            backend=self._backend,
        )

    def compute(self) -> List[TupleSet]:
        """Compute and cache the full approximate result."""
        if self._cached is None:
            self.statistics = FDStatistics()
            self._cached = approx_full_disjunction(
                self._database,
                self._join_function,
                self._threshold,
                use_index=self._use_index,
                statistics=self.statistics,
                backend=self._backend,
            )
        return list(self._cached)

    def scores(self) -> Dict[TupleSet, float]:
        """The approximate-join value ``A(T)`` of every result."""
        return {tuple_set: self._join_function(tuple_set) for tuple_set in self.compute()}

    def padded_rows(self) -> List[Dict[str, object]]:
        """Render results as null-padded rows over the union schema."""
        schema = combined_schema(self._database.relations)
        return [pad_tuple_set(tuple_set, schema) for tuple_set in self.compute()]

    def pretty(self) -> str:
        """Render the approximate result with per-row ``A`` values."""
        schema = combined_schema(self._database.relations)
        header = ["tuple set", "A"] + list(schema.attributes)
        rows = []
        for tuple_set in sorted(self.compute(), key=lambda ts: ts.sort_key()):
            padded = pad_tuple_set(tuple_set, schema)
            labels = "{" + ", ".join(sorted(t.label for t in tuple_set)) + "}"
            rows.append(
                [labels, f"{self._join_function(tuple_set):.2f}"]
                + ["⊥" if is_null(padded[a]) else str(padded[a]) for a in schema.attributes]
            )
        widths = [len(h) for h in header]
        for row in rows:
            for idx, cell in enumerate(row):
                widths[idx] = max(widths[idx], len(cell))
        lines = [
            "  ".join(h.ljust(widths[idx]) for idx, h in enumerate(header)),
            "  ".join("-" * widths[idx] for idx in range(len(header))),
        ]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(row)))
        return "\n".join(lines)
