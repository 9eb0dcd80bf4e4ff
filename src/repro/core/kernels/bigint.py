"""The big-int reference kernel: a per-set Python loop.

This kernel is the executable specification of the kernel interface, the
same way the dict/BFS tuple-set path is the specification of the bitset
path.  The packed kernel is tested against it and falls back to it whenever
an input is outside the packed representation.
"""

from __future__ import annotations

from typing import List

from repro.core.kernels.base import Kernel


class BigintKernel(Kernel):
    """Per-set loops over Python tuples (the reference)."""

    name = "bigint"

    def batch_contains_dead(self, sets, dead) -> List[bool]:
        dead = dead if isinstance(dead, (set, frozenset)) else set(dead)
        return [any(t in dead for t in tuple_set) for tuple_set in sets]
