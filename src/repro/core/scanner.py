"""Scanners: how the algorithms read ``Tuples(R)``.

Every loop of ``GetNextResult`` iterates over the tuples of the database.  The
scanner abstraction centralises that iteration so that

* the number of tuple reads and full passes can be counted (the benchmarks use
  these as machine-independent work measures), and
* the *block-based* execution of Section 7 can be plugged in: a
  :class:`BlockScanner` fetches tuples a block at a time and counts block
  fetches, modelling the I/O behaviour of an implementation inside a database
  system, while producing exactly the same tuple stream.

A scanner may carry a fixed *skip set* of relations it never reads.  The
full-disjunction driver restricts pass ``i`` to ``R_i, …, R_n`` this way, so
every counter a pass reports covers exactly the tuples it read.

**Mask passes.**  :meth:`TupleScanner.mask_pass` performs a pass on the
catalog's bitmasks instead of yielding tuples: it returns the *plan* — the
relations the pass reads, in scan order, each with its live tuples as a gid
mask — and counts the pass exactly as :meth:`~TupleScanner.scan` would (one
pass, one tuple read per tuple of every relation read), so the counters
mean the same whichever way a pass ran.  A scanner builds the plan once
and hands the same plan, counted the same, to every pass while the catalog
object and its live mask stay unchanged.  That relies on the pass's
precondition, which every pass checks (:func:`require_current`): the set's
catalog — the one the query started in — is the database's current
catalog.  A current catalog moves its live mask with every append and
tombstone, the only changes that keep it current; any other change
rebuilds the catalog, and the pass raises ``DatabaseError`` ("restart the
query").  A set with a tombstoned member reads tuples instead, and so does
every pass of a :class:`BlockScanner`: block execution (Section 7) exists
to count the block fetches a real scan makes.  How ``GetNextResult`` uses
the plan, and why that is exact, is in :mod:`repro.core.incremental`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.errors import DatabaseError
from repro.relational.tuples import Tuple


def require_current(database: Database, catalog) -> None:
    """Raise ``DatabaseError`` unless ``catalog`` is ``database``'s current
    catalog: a query runs in the catalog it started with, and a rebuild
    under it ends the query."""
    if catalog is not database.current_catalog():
        raise DatabaseError(
            "the database's catalog was rebuilt under a running query "
            "(compaction, a new relation or a change behind the database's "
            "back); restart the query"
        )


class TupleScanner:
    """Tuple-at-a-time scanner over ``Tuples(R)`` (the paper's default execution).

    ``skip_relations`` names relations that no scan of this scanner reads.
    """

    def __init__(self, database: Database, skip_relations: Iterable[str] = ()):
        self._database = database
        self.skip_relations = frozenset(skip_relations)
        self.tuple_reads = 0
        self.passes = 0
        # The last mask pass's (catalog, live mask, plan, reads).
        self._plan = None

    @property
    def database(self) -> Database:
        return self._database

    def scan(self) -> Iterator[Tuple]:
        """Yield every tuple outside the skip set, counting the pass and each read."""
        skip = self.skip_relations
        self.passes += 1
        for relation in self._database:
            if skip and relation.name in skip:
                continue
            for t in relation:
                self.tuple_reads += 1
                yield t

    def mask_pass(self, tuple_set) -> Optional[TupleType[TupleType[int, int], ...]]:
        """One pass on masks: the plan as ``(relation id, live gid mask)`` pairs.

        Counts the pass like :meth:`scan`.  Raises ``DatabaseError`` when
        the set's catalog is no longer the database's (see
        :func:`require_current`); returns ``None`` and counts nothing when a
        member is tombstoned, and the caller then reads tuples instead.  The
        plan and its read count are reused while the catalog and its live
        mask are unchanged (see the module docstring).
        """
        catalog = tuple_set.catalog
        require_current(self._database, catalog)
        if tuple_set.id_mask & catalog.dead_mask:
            return None
        live = catalog.live_mask
        cached = self._plan
        if cached is None or cached[0] is not catalog or cached[1] != live:
            skip = self.skip_relations
            plan = []
            reads = 0
            for relation in self._database:
                if skip and relation.name in skip:
                    continue
                rid = catalog.relation_id(relation.name)
                plan.append((rid, catalog.relation_tuples_mask(rid) & live))
                reads += len(relation)
            cached = self._plan = (catalog, live, tuple(plan), reads)
        self.passes += 1
        self.tuple_reads += cached[3]
        return cached[2]

    def cost_summary(self) -> dict:
        """The scanner's work counters, for benchmark reporting."""
        return {"tuple_reads": self.tuple_reads, "passes": self.passes}


class BlockScanner(TupleScanner):
    """Block-at-a-time scanner (Section 7, "block-based execution").

    Tuples are delivered in the same order as :class:`TupleScanner`, but they
    are fetched in blocks of ``block_size`` tuples per relation and the number
    of block fetches is recorded.  ``block_reads`` is the I/O measure the
    block-based benchmarks report.
    """

    def __init__(
        self, database: Database, block_size: int, skip_relations: Iterable[str] = ()
    ):
        super().__init__(database, skip_relations)
        if block_size < 1:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.block_reads = 0

    def scan_blocks(self) -> Iterator[List[Tuple]]:
        """Yield the database as a sequence of blocks, counting block fetches."""
        skip = self.skip_relations
        self.passes += 1
        for relation in self._database:
            if skip and relation.name in skip:
                continue
            block: List[Tuple] = []
            for t in relation:
                block.append(t)
                if len(block) == self.block_size:
                    self.block_reads += 1
                    self.tuple_reads += len(block)
                    yield block
                    block = []
            if block:
                self.block_reads += 1
                self.tuple_reads += len(block)
                yield block

    def scan(self) -> Iterator[Tuple]:
        """Yield every tuple, fetched block by block.

        ``scan_blocks`` counts the pass and the block fetches.
        """
        for block in self.scan_blocks():
            yield from block

    def mask_pass(self, tuple_set) -> None:
        """Never a mask pass: ``block_reads`` counts the blocks a scan
        fetches.  The set's catalog is checked as on every pass."""
        require_current(self._database, tuple_set.catalog)
        return None

    def cost_summary(self) -> dict:
        summary = super().cost_summary()
        summary["block_reads"] = self.block_reads
        summary["block_size"] = self.block_size
        return summary


def make_scanner(
    database: Database, block_size: Optional[int], skip_relations: Iterable[str] = ()
) -> TupleScanner:
    """The scanner for one pass: tuple-at-a-time, or block-based (Section 7).

    ``skip_relations`` is the pass's fixed skip set (see the module docstring).
    """
    if block_size is None:
        return TupleScanner(database, skip_relations)
    return BlockScanner(database, block_size, skip_relations)


def earlier_relations(database: Database, anchor_name: str) -> Set[str]:
    """The names of the relations preceding ``anchor_name`` in database order:
    ``R_<i``, the skip set of pass ``i``."""
    anchor_index = database.index_of(anchor_name)
    return {relation.name for relation in database.relations[:anchor_index]}
