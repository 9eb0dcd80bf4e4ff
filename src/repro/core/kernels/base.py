"""The kernel interface: batched bitset inner loops with a parity contract.

The engine's hot path is a small set of *batch* operations over interned
:class:`~repro.core.tupleset.TupleSet` bitmasks: subsumption probes over a
whole anchor-bucket group (Line 11 of ``GetNextResult``), the first mergeable
partner in an ``Incomplete`` bucket (Line 14), a batched absorb test, and the
liveness sweeps of the streaming retraction path.  A :class:`Kernel` packages
one implementation of those operations; two are provided:

* :class:`~repro.core.kernels.bigint.BigintKernel` — the executable
  reference, looping over Python big-int masks exactly the way the serial
  engine does;
* :class:`~repro.core.kernels.packed.PackedKernel` — the vectorized
  implementation over NumPy ``uint64`` packed-word arrays, evaluating an
  entire batch in a handful of array operations.

**Parity contract.**  Every kernel must be *observationally identical* to
the big-int reference: the same answers, in the same order, and — where an
operation reports work (``batch_contains_superset``'s scanned count) — the
same counter values the serial per-candidate loop would have produced.  The
randomized three-way suite in ``tests/core/test_tupleset_equivalence.py``
and ``tests/core/test_kernels.py`` holds kernels to this contract; the
byte-identical-stream assertions in ``benchmarks/bench_e13_kernels.py`` hold
it end to end.  A kernel that cannot handle an input (uninterned sets, sets
interned in different catalogs, uncatalogued tuples) must *fall back* to the
reference behaviour for that call, never guess.

Maximal extension (Lines 2–6) is not a kernel operation: the step runs it
on the catalog's masks one relation at a time (see
:mod:`repro.core.incremental`), which leaves nothing to vectorize.

To add a kernel: subclass :class:`Kernel`, implement the six operations,
and register the name in :data:`repro.core.kernels.KERNELS` with a branch in
``resolve_kernel``.  Selection is process-wide via the ``REPRO_KERNEL``
environment variable (see :mod:`repro.core.kernels`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple as TupleType


class Kernel:
    """One implementation of the batched bitset inner loops."""

    #: Selection name, e.g. ``"bigint"`` or ``"packed"``.
    name: str = "abstract"

    def batch_contains_superset(
        self, group, probes, cache: Optional[dict] = None, cache_key=None
    ) -> TupleType[List[bool], int]:
        """Line 11 for one relation-set group: is each probe ⊆ some stored set?

        ``group`` is one relation-set group of an anchor bucket (insertion
        order); ``probes`` are the not-yet-answered probes whose relation set
        is contained in the group's.  Returns ``(answers, scanned)`` where
        ``scanned`` counts exactly the subset tests the serial early-break
        loop performs: for each probe, the index of its first superset plus
        one, or the full group size on a miss.  ``cache``/``cache_key`` let
        the store memoize the group's packed matrix across calls; kernels
        without such state ignore them.
        """
        raise NotImplementedError

    def first_jcc_union(self, waiting_list: Sequence, candidate) -> int:
        """Line 14: index of the first waiting set with ``JCC(S ∪ T')``, or -1."""
        raise NotImplementedError

    def batch_can_absorb(self, catalog, id_mask: int, relation_mask: int, gids):
        """The extension absorb test (``can_absorb``) for many tuples against one set.

        ``id_mask``/``relation_mask`` describe the (interned, non-empty) set;
        ``gids`` are catalogued candidate tuple ids.  Membership and the
        empty-set convention are the caller's business — this answers the
        pure consistency-and-adjacency test.
        """
        raise NotImplementedError

    def batch_contains_tombstoned(self, sets, catalog) -> List[bool]:
        """Per-set liveness sweep: does the set hold a tuple dead in ``catalog``?"""
        raise NotImplementedError

    def batch_contains_dead(self, sets, dead) -> List[bool]:
        """Per-set eviction sweep: does the set hold a tuple equal to one in ``dead``?"""
        raise NotImplementedError

    def popcount(self, mask: int) -> int:
        """Population count of a bitmask."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
