"""Computing the whole full disjunction ``FD(R)`` (Corollary 4.9).

``FD(R)`` is the union of ``FD_i(R)`` over every relation ``R_i``, so the
driver runs ``IncrementalFD`` once per relation.  A tuple set holding ``j``
tuples belongs to ``j`` of the ``FD_i``; the driver emits it from the pass
of its *first* relation only.

Every exact driver runs pass ``i`` through one generator,
:func:`restricted_pass`, seeded with the singletons of ``R_i`` as in Fig. 1.
Following Section 7, the pass scans ``R_i, …, R_n`` only (written ``R_≥i``;
``R_<i`` is ``R_1, …, R_{i-1}``), and it drops a result that can absorb one
live tuple of ``R_<i``.  This is exact:

* an answer whose first relation is ``R_i`` lies in ``R_≥i`` and is maximal
  there, so pass ``i`` produces it, and it absorbs no tuple at all;
* a set that is maximal in ``R_≥i`` but is not an answer has a join
  consistent and connected proper superset, so it can absorb a single tuple
  adjacent to it, and that tuple must belong to ``R_<i``.

Each dropped set is the ``R_≥i`` component, holding its anchor, of one
answer an earlier pass emitted.  So pass ``i`` drops no more sets than the
answers emitted before it, the drops never exceed ``(n-1)`` times the
answers emitted so far, and the driver keeps its incremental polynomial
time.  The bound is why the passes take no other seeds: Section 7's reuse
strategies ("minimizing repeated work") seed pass ``i`` from earlier
answers instead, and lose to the singletons on every input E7 measures.

Statistics of a full run (see :class:`~repro.core.incremental.FDStatistics`):
``results`` counts the sets the passes produced, dropped ones included;
``results_emitted`` counts the answers yielded; ``tuple_reads``,
``block_reads``, ``candidates_*`` and ``sets_scanned`` cover ``R_≥i`` only
in pass ``i``.  Every driver merges them on every exit, so an abandoned
stream (:func:`first_k`) reports the work it did.

The module exposes both a generator (:func:`full_disjunction_sets`) for
streaming consumption — the reason the algorithm exists — and a convenience
class (:class:`FullDisjunction`) that also renders results as padded rows, as
in Table 2 of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.relational.database import Database
from repro.relational.nulls import NULL, is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.core.incremental import FDStatistics, incremental_fd
from repro.core.scanner import earlier_relations, make_scanner, require_current
from repro.core.tupleset import TupleSet
from repro.obs.tracing import trace_span


def absorbs_earlier_tuple(
    result: TupleSet, database: Database, anchor_name: str
) -> bool:
    """Whether ``JCC(result ∪ {t})`` holds for a live tuple ``t`` of ``R_<i``.

    ``R_i`` is the relation named ``anchor_name`` and ``result`` holds no
    tuple of ``R_<i``.  The test is one mask: the tuples of the earlier
    relations adjacent to the set, live, and join consistent with every
    member.
    """
    catalog = result.catalog
    earlier_relations_mask = (1 << catalog.relation_id(anchor_name)) - 1
    adjacent = earlier_relations_mask & result.adjacent_relations
    if not adjacent:
        return False
    mask = catalog.tuples_in_relations(adjacent) & catalog.live_mask
    members = result.id_mask
    while members and mask:
        low = members & -members
        mask &= catalog.consistent_mask(low.bit_length() - 1)
        members ^= low
    return bool(mask)


def restricted_pass(
    database: Database,
    anchor_name: str,
    use_index: bool = False,
    block_size: Optional[int] = None,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleSet]:
    """Pass ``i`` of the exact driver: the answers whose first relation is ``R_i``.

    Runs ``IncrementalFD`` for ``R_i`` (``anchor_name``) with a scanner that
    skips ``R_<i`` and yields a result only when it cannot absorb one live
    tuple of ``R_<i`` (see the module docstring for why this is exact).  The
    pass's counters are merged into ``statistics`` on every exit, an
    abandoned pass included.
    """
    earlier = earlier_relations(database, anchor_name)
    scanner = make_scanner(database, block_size, earlier)
    pass_statistics = FDStatistics() if statistics is not None else None
    emitted = 0
    results = incremental_fd(
        database,
        anchor_name,
        use_index=use_index,
        scanner=scanner,
        statistics=pass_statistics,
    )
    try:
        for result in results:
            if earlier and absorbs_earlier_tuple(result, database, anchor_name):
                continue
            emitted += 1
            yield result
    finally:
        # Close the pass first: its store counters land in pass_statistics.
        results.close()
        if pass_statistics is not None:
            pass_statistics.results_emitted = emitted
            pass_statistics.tuple_reads = scanner.tuple_reads
            pass_statistics.scan_passes = scanner.passes
            pass_statistics.block_reads = getattr(scanner, "block_reads", 0)
            statistics.merge(pass_statistics)


def full_disjunction_sets(
    database: Database,
    use_index: bool = False,
    block_size: Optional[int] = None,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleSet]:
    """Generate every tuple set of ``FD(R)`` exactly once.

    Parameters
    ----------
    database:
        The relations ``R_1, …, R_n`` (in database order).
    use_index:
        Enable the Section 7 hash index on ``Complete``/``Incomplete``.
    block_size:
        When given, tuples are scanned block-at-a-time (Section 7
        "block-based execution"); results are identical.
    statistics:
        Optional counters accumulated across all passes.

    The run keeps the catalog it starts with (see
    :mod:`repro.core.incremental`): a rebuild under it makes the next pass
    raise ``DatabaseError``.
    """
    catalog = database.catalog()
    for relation in database.relations:
        require_current(database, catalog)
        # The span covers the pass's wall clock as the consumer sees it
        # (pauses between pulls included) — on a trace, that is where the
        # serving time actually went.
        with trace_span("engine.pass", "engine", anchor=relation.name):
            yield from restricted_pass(
                database,
                relation.name,
                use_index=use_index,
                block_size=block_size,
                statistics=statistics,
            )


def full_disjunction(
    database: Database,
    use_index: bool = False,
    block_size: Optional[int] = None,
    statistics: Optional[FDStatistics] = None,
) -> List[TupleSet]:
    """Materialise ``FD(R)`` as a list of tuple sets (see :func:`full_disjunction_sets`)."""
    return list(
        full_disjunction_sets(
            database,
            use_index=use_index,
            block_size=block_size,
            statistics=statistics,
        )
    )


def first_k(
    database: Database,
    k: int,
    use_index: bool = False,
    block_size: Optional[int] = None,
    statistics: Optional[FDStatistics] = None,
) -> List[TupleSet]:
    """Return ``k`` (arbitrary) members of ``FD(R)``, stopping all work early.

    This is the operation Theorem 4.10 bounds by ``O(s²·n⁴·k²)``: the
    generator is simply abandoned after ``k`` results.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return []
    results: List[TupleSet] = []
    for result in full_disjunction_sets(
        database,
        use_index=use_index,
        block_size=block_size,
        statistics=statistics,
    ):
        results.append(result)
        if len(results) == k:
            break
    return results


class FullDisjunction:
    """High-level, reusable handle on the full disjunction of a database.

    Examples
    --------
    >>> from repro.workloads.tourist import tourist_database
    >>> fd = FullDisjunction(tourist_database())
    >>> len(fd.compute())
    6
    """

    def __init__(
        self,
        database: Database,
        use_index: bool = False,
        block_size: Optional[int] = None,
    ):
        self._database = database
        self._use_index = use_index
        self._block_size = block_size
        self.statistics = FDStatistics()
        self._cached: Optional[List[TupleSet]] = None

    @property
    def database(self) -> Database:
        return self._database

    def __iter__(self) -> Iterator[TupleSet]:
        """Stream the members of ``FD(R)`` (no caching)."""
        return full_disjunction_sets(
            self._database,
            use_index=self._use_index,
            block_size=self._block_size,
        )

    def compute(self) -> List[TupleSet]:
        """Compute and cache the full result."""
        if self._cached is None:
            self.statistics = FDStatistics()
            self._cached = list(
                full_disjunction_sets(
                    self._database,
                    use_index=self._use_index,
                    block_size=self._block_size,
                    statistics=self.statistics,
                )
            )
        return list(self._cached)

    def first(self, k: int) -> List[TupleSet]:
        """Return the first ``k`` results produced (incremental retrieval)."""
        return first_k(
            self._database,
            k,
            use_index=self._use_index,
            block_size=self._block_size,
        )

    def result_schema(self) -> Schema:
        """The union schema over which padded rows are rendered (as in Table 2)."""
        return combined_schema(self._database.relations)

    def padded_rows(self) -> List[Dict[str, object]]:
        """Render every result as a null-padded row (the last columns of Table 2)."""
        schema = self.result_schema()
        return [pad_tuple_set(tuple_set, schema) for tuple_set in self.compute()]

    def to_relation(self, name: str = "FD") -> Relation:
        """Materialise the padded rows as a relation."""
        schema = self.result_schema()
        relation = Relation(name, schema, label_prefix="fd")
        for row in self.padded_rows():
            relation.add([row[attribute] for attribute in schema.attributes])
        return relation

    def pretty(self) -> str:
        """Render the result in the style of Table 2: tuple sets plus padded columns."""
        schema = self.result_schema()
        header = ["tuple set"] + list(schema.attributes)
        rows = []
        for tuple_set in sorted(self.compute(), key=lambda ts: ts.sort_key()):
            row = pad_tuple_set(tuple_set, schema)
            labels = "{" + ", ".join(sorted(t.label for t in tuple_set)) + "}"
            rows.append(
                [labels]
                + ["⊥" if is_null(row[attribute]) else str(row[attribute]) for attribute in schema.attributes]
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
