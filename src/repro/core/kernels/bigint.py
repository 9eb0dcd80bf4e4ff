"""The big-int reference kernel: the serial engine's loops, verbatim.

This kernel is the executable specification of the kernel interface, the
same way the dict/BFS tuple-set path is the specification of the bitset
path: each operation is the exact per-candidate Python loop the serial
engine runs (or ran, before the loops moved here), including the early
breaks that the work counters observe.  The packed kernel is tested against
it operation by operation and falls back to it whenever an input is outside
the packed representation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple as TupleType

from repro.core.kernels.base import Kernel


class BigintKernel(Kernel):
    """Per-candidate loops over Python big-int bitmasks (the reference)."""

    name = "bigint"

    def batch_contains_superset(
        self, group, probes, cache: Optional[dict] = None, cache_key=None
    ) -> TupleType[List[bool], int]:
        answers: List[bool] = []
        scanned = 0
        for probe in probes:
            hit = False
            for stored in group:
                scanned += 1
                if probe.issubset(stored):
                    hit = True
                    break
            answers.append(hit)
        return answers, scanned

    def first_jcc_union(self, waiting_list: Sequence, candidate) -> int:
        for index, waiting in enumerate(waiting_list):
            if waiting.union_is_jcc(candidate):
                return index
        return -1

    def batch_can_absorb(self, catalog, id_mask: int, relation_mask: int, gids):
        flags: List[bool] = []
        for gid in gids:
            if id_mask & ~catalog.consistent_mask(gid):
                flags.append(False)
                continue
            adjacency = catalog.adjacency_mask(catalog.relation_of_tuple(gid))
            flags.append(bool(adjacency & relation_mask))
        return flags

    def batch_contains_tombstoned(self, sets, catalog) -> List[bool]:
        return [tuple_set.contains_tombstoned(catalog) for tuple_set in sets]

    def batch_contains_dead(self, sets, dead) -> List[bool]:
        dead = dead if isinstance(dead, (set, frozenset)) else set(dead)
        return [any(t in dead for t in tuple_set) for tuple_set in sets]

    def popcount(self, mask: int) -> int:
        return bin(mask).count("1")
