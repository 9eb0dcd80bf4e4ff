"""The kernel interface: batched bitset sweeps with a parity contract.

A :class:`Kernel` packages one implementation of a batch operation over
interned :class:`~repro.core.tupleset.TupleSet` bitmasks: the dead-tuple
eviction sweep of the streaming retraction path
(``CompleteStore.retract_containing`` on an unindexed store without a
catalog).  Two kernels are provided:

* :class:`~repro.core.kernels.bigint.BigintKernel` — the executable
  reference, a per-set Python loop;
* :class:`~repro.core.kernels.packed.PackedKernel` — the vectorized
  implementation over NumPy ``uint64`` packed-word arrays, evaluating an
  entire batch in a handful of array operations.

**Parity contract.**  Every kernel must be *observationally identical* to
the big-int reference: the same answers, in the same order.  The
randomized suites in ``tests/core/test_tupleset_equivalence.py`` and
``tests/core/test_kernels.py`` hold kernels to this contract; the
byte-identical-stream assertions in ``benchmarks/bench_e13_kernels.py`` hold
it end to end.  A kernel that cannot handle an input (uninterned sets, sets
interned in different catalogs, uncatalogued tuples) must *fall back* to the
reference behaviour for that call, never guess.

The step itself uses no kernel op: Lines 2–9 run on the catalog's masks one
relation at a time (see :mod:`repro.core.incremental`), and the Line 11 and
Line 14 probes walk one anchor bucket per candidate, which leaves nothing to
vectorize.

To add a kernel: subclass :class:`Kernel`, implement its operation, and
register the name in :data:`repro.core.kernels.KERNELS` with a branch in
``resolve_kernel``.  Selection is process-wide via the ``REPRO_KERNEL``
environment variable (see :mod:`repro.core.kernels`).
"""

from __future__ import annotations

from typing import List


class Kernel:
    """One implementation of the batched bitset sweeps."""

    #: Selection name, e.g. ``"bigint"`` or ``"packed"``.
    name: str = "abstract"

    def batch_contains_dead(self, sets, dead) -> List[bool]:
        """Per-set eviction sweep: does the set hold a tuple equal to one in ``dead``?"""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
