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
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.relational.database import Database
from repro.relational.tuples import Tuple


class TupleScanner:
    """Tuple-at-a-time scanner over ``Tuples(R)`` (the paper's default execution).

    ``skip_relations`` names relations that no scan of this scanner reads.
    """

    def __init__(self, database: Database, skip_relations: Iterable[str] = ()):
        self._database = database
        self.skip_relations = frozenset(skip_relations)
        self.tuple_reads = 0
        self.passes = 0

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
