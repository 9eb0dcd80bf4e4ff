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

:class:`ApproxSemantics` holds exactly these changes, and the exact loops
take it as their ``semantics`` argument:

* ``ApproxIncrementalFD(R, i, A, τ)`` is
  :func:`~repro.core.incremental.incremental_fd` and
  ``ApproxGetNextResult`` is :func:`~repro.core.incremental.get_next_result`
  under it; :func:`approx_pass` is one pass of the Corollary 6.7 driver;
* ranked retrieval of ``AFD`` — which the end of Section 6 obtains "in the
  spirit of PriorityIncrementalFD" — is
  :func:`~repro.core.priority.priority_incremental_fd` (or
  :func:`~repro.core.priority.top_k`) under it: its queues are seeded with
  the qualifying connected sets of size at most ``c`` and merged while the
  union qualifies.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.core.approx_join import ApproximateJoinFunction
from repro.core.incremental import (
    FDStatistics,
    _extend_by_tuples,
    anchored_candidates,
    incremental_fd,
)
from repro.core.scanner import earlier_relations, require_current
from repro.core.tupleset import TupleSet
from repro.obs.tracing import trace_span


class ApproxSemantics:
    """The ``(A, τ)`` semantics of ``ApproxIncrementalFD`` (Figs. 5 and 6).

    Passed as ``semantics`` to the exact loops, it supplies the starred
    steps: the Line 3 seed test and the rest of every growth and merge test
    is ``A(T) ≥ τ`` on a connected ``T`` (:meth:`qualifies`), Lines 2–6
    extend while ``T ∪ {t_g}`` qualifies, Line 8 yields every maximal
    qualifying subset, and Line 14 merges ``S`` and ``T'`` when ``S ∪ T'``
    qualifies.  ``τ`` is checked here, before any pass runs.
    """

    def __init__(self, join_function: ApproximateJoinFunction, threshold: float):
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.join_function = join_function
        self.threshold = threshold

    def can_absorb(self, tuple_set: TupleSet, t) -> bool:
        """The growth test's first half: ``t``'s relation is not in ``T`` yet."""
        return t.relation_name not in tuple_set.relations

    def qualifies(self, tuple_set: TupleSet) -> bool:
        """``A(T) ≥ τ`` for a connected ``T`` (the starred ``JCC`` test)."""
        return tuple_set.is_connected and self.join_function(tuple_set) >= self.threshold

    def extend(self, tuple_set, scanner, statistics):
        """Lines 2–6 (starred): extend while ``A(T ∪ {t_g}) ≥ τ``.

        Because ``A`` is acceptable, any maximal set of ``AFD`` that contains
        the current set can be reached by such single-tuple steps, so the
        fixpoint is maximal (see the discussion after Definition 6.4).  No
        pass runs on masks here, so the step checks the run's catalog first,
        as a mask pass would (:func:`~repro.core.scanner.require_current`).
        """
        require_current(scanner.database, tuple_set.catalog)
        return _extend_by_tuples(tuple_set, scanner, statistics, self)

    def survivors(self, result, anchor, scanner, statistics, settle=None):
        """Never on masks: the starred Line 8 scores each outside tuple."""
        return None

    def candidates(self, result, anchor, scanner, statistics):
        """Lines 7–9 (starred): ``(T', anchor tuple)`` for every maximal
        qualifying subset that passes Line 9, in scan order."""
        return anchored_candidates(
            (
                candidate
                for outside in scanner.scan()
                if outside not in result
                for candidate in self.join_function.candidate_extensions(
                    result, outside, self.threshold
                )
            ),
            anchor,
            statistics,
        )

    def mergeable(self, waiting: TupleSet, candidate: TupleSet) -> bool:
        """Line 14 (starred): ``S ∪ T'`` qualifies."""
        return self.qualifies(waiting.union(candidate))


def approx_pass(
    database: Database,
    anchor_name: str,
    semantics: ApproxSemantics,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleSet]:
    """Pass ``i`` of the approximate driver: the ``AFD`` members whose first
    relation is ``R_i``.

    The approximate twin of
    :func:`~repro.core.full_disjunction.restricted_pass`: it runs
    ``ApproxIncrementalFD`` for ``R_i`` (``anchor_name``) over the whole
    database and drops each result that holds a tuple of an earlier
    relation, which that relation's pass emits.  A similarity merge may join
    candidates through earlier relations, so the ``R_≥i`` scan is not sound
    here.
    The pass's counters are merged into ``statistics`` on every exit, an
    abandoned pass included.
    """
    earlier = earlier_relations(database, anchor_name)
    pass_statistics = FDStatistics() if statistics is not None else None
    emitted = 0
    results = incremental_fd(
        database,
        anchor_name,
        use_index=use_index,
        statistics=pass_statistics,
        semantics=semantics,
    )
    try:
        for result in results:
            if any(result.contains_tuple_from(name) for name in earlier):
                continue
            emitted += 1
            yield result
    finally:
        results.close()
        if pass_statistics is not None:
            pass_statistics.results_emitted = emitted
            statistics.merge(pass_statistics)


def approx_full_disjunction_sets(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleSet]:
    """Generate every member of ``AFD(R, A, τ)`` exactly once (Corollary 6.7).

    Runs one :func:`approx_pass` per relation, in database order, each in
    an ``engine.pass`` span.  An out-of-range ``threshold`` raises
    ``ValueError`` before any pass runs.  The run keeps the catalog it
    starts with: a rebuild under it makes the next pass raise
    ``DatabaseError``.
    """
    semantics = ApproxSemantics(join_function, threshold)
    catalog = database.catalog()
    for relation in database.relations:
        require_current(database, catalog)
        with trace_span("engine.pass", "engine", anchor=relation.name):
            yield from approx_pass(
                database, relation.name, semantics, use_index=use_index, statistics=statistics
            )


def approx_full_disjunction(
    database: Database,
    join_function: ApproximateJoinFunction,
    threshold: float,
    use_index: bool = False,
    statistics: Optional[FDStatistics] = None,
) -> List[TupleSet]:
    """Materialise ``AFD(R, A, τ)`` as a list of tuple sets."""
    return list(
        approx_full_disjunction_sets(
            database,
            join_function,
            threshold,
            use_index=use_index,
            statistics=statistics,
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
    ):
        self._database = database
        self._join_function = join_function
        self._threshold = threshold
        self._use_index = use_index
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
