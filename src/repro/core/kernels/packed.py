"""The packed kernel: bitset sweeps on NumPy ``uint64`` word arrays.

The big-int representation answers one set per Python bytecode loop
iteration; this module answers a whole batch per NumPy array operation.  The
data layout is a columnar mirror of the catalog's bitmatrices
(:class:`PackedMirror`): every big-int bitmask becomes a row of ``uint64``
little-endian words, so a mask of ``n`` tuples occupies ``ceil(n/64)`` words
and the engine's predicates become word-wise ``AND``/``ANDN`` reductions
over contiguous arrays.

Layout invariant: for every mask ``m`` and width ``w``,
``pack_int(m, w)`` is exactly ``m.to_bytes(w*8, 'little')`` viewed as
``<u8`` words — so ``unpack_to_int(pack_int(m, w)) == m`` and the packed
rows can always be checked bit-for-bit against the catalog's big ints
(``tests/core/test_kernels.py`` does).

The mirror is created lazily by :meth:`Catalog.packed_mirror
<repro.relational.catalog.Catalog.packed_mirror>` and maintained
*incrementally* by the catalog's ``append_tuple``/``tombstone`` hooks:
appending a tuple writes one packed row and ORs one bit-column
(amortized O(n/64) words via capacity doubling), a tombstone sets one bit.
Interned tuple sets cache their own packed row in a ``TupleSet`` slot, built
on first use and padded when the id space grows.

Besides the kernel, the mirror backs mapped catalogs (``repro pack``,
``load_database``), whose consistency rows are served from its file, and
sharded workers attach to it instead of unpickling the database.

The kernel obeys the parity contract of :mod:`repro.core.kernels.base`:
inputs the packed representation cannot express (uninterned sets, mixed
catalogs, uncatalogued tuples, ambiguous dead-tuple incarnations) are
delegated to the big-int reference kernel for that call, so answers are
identical by construction, not by luck.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.kernels.base import Kernel
from repro.core.kernels.bigint import BigintKernel

#: All packed arrays use explicit little-endian words so ``pack_int`` /
#: ``unpack_to_int`` round-trip through ``int.to_bytes(..., "little")`` on
#: any host byte order.
U64 = np.dtype("<u8")

_ONE = np.uint64(1)


def words_for(bits: int) -> int:
    """Words needed for ``bits`` bit positions (at least one)."""
    return max(1, (bits + 63) >> 6)


def pack_int(mask: int, width: int) -> np.ndarray:
    """A big-int bitmask as ``width`` little-endian ``uint64`` words (read-only)."""
    return np.frombuffer(mask.to_bytes(width * 8, "little"), dtype=U64)


def unpack_to_int(words: np.ndarray) -> int:
    """The inverse of :func:`pack_int`."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


def unpack_bits(mask: int, bits: int) -> np.ndarray:
    """A big-int bitmask as a boolean array of ``bits`` positions."""
    if bits <= 0:
        return np.zeros(0, dtype=bool)
    raw = np.frombuffer(mask.to_bytes((bits + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:bits].astype(bool)


def set_words(tuple_set, width: int) -> np.ndarray:
    """The packed row of an interned tuple set, cached on the set itself.

    The cached row only ever needs to *grow* (dense ids are append-only), so
    a cached row at least ``width`` words wide is sliced, a narrower one is
    rebuilt and re-cached.
    """
    row = tuple_set._packed_row
    if row is None or row.shape[0] < width:
        row = pack_int(tuple_set._id_mask, width)
        tuple_set._packed_row = row
    return row[:width]


class PackedMirror:
    """The catalog's bitmatrices as packed ``uint64`` arrays, kept in sync.

    Built once from the catalog's big ints, then maintained incrementally by
    the catalog's append/tombstone hooks.  Arrays are over-allocated
    (capacity doubling in both rows and words), with ``n``/``width`` marking
    the logical extent, so streaming appends stay amortized O(row).

    Two backings share every kernel code path — the arrays differ only in
    where their bytes live:

    ``backing="ram"``
        Anonymous ``np.zeros`` allocations (the original mirror).
    ``backing="mmap"``
        Views over a :class:`~repro.relational.catalog_file.MirrorFile`
        mapping, so the matrices page in on demand, survive the process, and
        are shared zero-copy with sharded workers via the OS page cache.
        Appends additionally write the tuple's payload entry to the file and
        growth delegates to the file's ftruncate-and-remap doubling.

    Answers are identical across backings by construction: every reader
    uses the same attributes either way.
    """

    __slots__ = (
        "n",
        "width",
        "r_words",
        "consistent",
        "dead",
        "relation_tuples",
        "tuple_relation",
        "adjacency",
        "backing",
        "file",
        "version",
    )

    def __init__(self, catalog, backing: str = "ram", path: Optional[str] = None,
                 delete_on_close: bool = False):
        if backing not in ("ram", "mmap"):
            raise ValueError(f"backing must be 'ram' or 'mmap', got {backing!r}")
        n = catalog.tuple_count
        r = catalog.relation_count
        self.n = n
        self.width = words_for(n)
        self.r_words = words_for(max(r, 1))
        self.backing = backing
        self.version = 0
        row_cap = max(n, 16)
        if backing == "mmap":
            if path is None:
                raise ValueError("the mmap backing needs a file path")
            from repro.relational.catalog_file import MirrorFile

            self.file = MirrorFile.create(
                path,
                row_cap=row_cap,
                word_cap=self.width,
                relation_count=r,
                r_words=self.r_words,
                meta=catalog.mirror_meta(),
                delete_on_close=delete_on_close,
            )
            self._bind_file_arrays()
        else:
            self.file = None
            self.consistent = np.zeros((row_cap, self.width), dtype=U64)
            self.dead = np.zeros(self.width, dtype=U64)
            self.relation_tuples = np.zeros((max(r, 1), self.width), dtype=U64)
            self.adjacency = np.zeros((max(r, 1), self.r_words), dtype=U64)
            self.tuple_relation = np.zeros(row_cap, dtype=np.int64)
        for gid in range(n):
            self.consistent[gid, :self.width] = pack_int(
                catalog.consistent_mask(gid), self.width
            )
        self.dead[:self.width] = pack_int(catalog.dead_mask, self.width)
        for rid in range(r):
            self.relation_tuples[rid, :self.width] = pack_int(
                catalog.relation_tuples_mask(rid), self.width
            )
            self.adjacency[rid, :self.r_words] = pack_int(
                catalog.adjacency_mask(rid), self.r_words
            )
        for gid in range(n):
            self.tuple_relation[gid] = catalog.relation_of_tuple(gid)
        if self.file is not None:
            for gid in range(n):
                self.file.append_payload(catalog.payload_entry(gid))
            self.file.set_counts(n, self.width)
            self.file.flush()

    @classmethod
    def attached(cls, mirror_file) -> "PackedMirror":
        """Wrap an already-populated mirror file (the worker side).

        No catalog big ints are read — the file's header supplies the
        logical extents and the mapped sections supply the matrices, so
        attaching is O(1) regardless of database size.
        """
        self = object.__new__(cls)
        self.backing = "mmap"
        self.version = 0
        self.file = mirror_file
        self.n = mirror_file.n
        self.width = mirror_file.width
        self.r_words = mirror_file.r_words
        self._bind_file_arrays()
        return self

    @property
    def path(self) -> Optional[str]:
        """The backing file's path (``None`` for the RAM backing)."""
        return None if self.file is None else self.file.path

    def _bind_file_arrays(self) -> None:
        self.consistent = self.file.consistent
        self.relation_tuples = self.file.relation_tuples
        self.adjacency = self.file.adjacency
        self.dead = self.file.dead
        self.tuple_relation = self.file.tuple_relation

    def _grow(self, need_rows: int, need_words: int) -> None:
        if self.file is not None:
            self.file.grow(need_rows, need_words)
            self._bind_file_arrays()
            return
        row_cap, word_cap = self.consistent.shape
        new_rows = row_cap
        while new_rows < need_rows:
            new_rows *= 2
        new_words = word_cap
        while new_words < need_words:
            new_words *= 2
        if new_rows != row_cap or new_words != word_cap:
            grown = np.zeros((new_rows, new_words), dtype=U64)
            grown[:self.n, :self.width] = self.consistent[:self.n, :self.width]
            self.consistent = grown
            relation = np.zeros((self.relation_tuples.shape[0], new_words), dtype=U64)
            relation[:, :self.width] = self.relation_tuples[:, :self.width]
            self.relation_tuples = relation
            dead = np.zeros(new_words, dtype=U64)
            dead[:self.width] = self.dead[:self.width]
            self.dead = dead
            tuple_relation = np.zeros(new_rows, dtype=np.int64)
            tuple_relation[:self.n] = self.tuple_relation[:self.n]
            self.tuple_relation = tuple_relation

    def append_row(self, gid: int, mask: int, rid: int, payload=None) -> None:
        """Mirror ``Catalog.append_tuple``: one new row plus one bit-column.

        With the mmap backing the tuple's ``payload`` entry rides into the
        file's payload region and the header's logical counts advance, so
        the file is attachable after every append — the streaming-ingest
        contract of the in-RAM mirror, preserved on disk.
        """
        if self.file is not None and self.file.readonly:
            from repro.relational.catalog_file import MirrorFileError

            raise MirrorFileError(
                f"cannot append through a read-only mirror mapping ({self.file.path})"
            )
        width = words_for(gid + 1)
        self._grow(gid + 1, width)
        self.width = max(self.width, width)
        self.consistent[gid, :self.width] = pack_int(mask, self.width)
        bit = _ONE << np.uint64(gid & 63)
        word = gid >> 6
        if mask:
            rows = np.flatnonzero(unpack_bits(mask, gid))
            self.consistent[rows, word] |= bit
        self.relation_tuples[rid, word] |= bit
        self.tuple_relation[gid] = rid
        self.n = gid + 1
        self.version += 1
        if self.file is not None:
            if payload is not None and self.file.append_payload(payload):
                self._bind_file_arrays()
            self.file.set_counts(self.n, self.width)

    def tombstone(self, gid: int) -> None:
        """Mirror ``Catalog.tombstone``: one bit in the dead words."""
        if self.file is not None and self.file.readonly:
            from repro.relational.catalog_file import MirrorFileError

            raise MirrorFileError(
                f"cannot tombstone through a read-only mirror mapping ({self.file.path})"
            )
        self.dead[gid >> 6] |= _ONE << np.uint64(gid & 63)
        self.version += 1
        if self.file is not None:
            self.file.mark_dirty()

    def dead_words(self) -> np.ndarray:
        return self.dead[:self.width]

    def consistent_row(self, gid: int) -> np.ndarray:
        return self.consistent[gid, :self.width]

    def row_as_int(self, gid: int) -> int:
        """The consistency row as a big int (parity checks in tests)."""
        return unpack_to_int(self.consistent_row(gid))


class PackedKernel(Kernel):
    """Vectorized batch operations over the packed-word representation."""

    name = "packed"

    #: Below this many sets the big-int reference is faster — a CPython
    #: loop over a few sets beats the NumPy dispatch and row-gathering — and
    #: the call delegates (same answers either way, per the parity
    #: contract).
    MIN_DEAD = 64

    def __init__(self):
        self._reference = BigintKernel()

    def batch_contains_dead(self, sets, dead) -> List[bool]:
        dead = dead if isinstance(dead, (set, frozenset)) else set(dead)
        if not dead or not sets:
            return [False] * len(sets)
        if len(sets) < self.MIN_DEAD:
            return self._reference.batch_contains_dead(sets, dead)
        first = sets[0]
        catalog = first._catalog if first._id_mask is not None else None
        if catalog is None or any(
            s._id_mask is None or s._catalog is not catalog for s in sets
        ):
            return self._reference.batch_contains_dead(sets, dead)
        mask = 0
        dead_mask = catalog.dead_mask
        for t in dead:
            gid = catalog.id_of(t)
            if gid is None:
                # No catalogued tuple equals t, so no interned set holds it.
                continue
            if not (dead_mask >> gid) & 1:
                # t maps to a *live* incarnation: equality-based eviction is
                # ambiguous in ids, so answer by tuple equality instead.
                return self._reference.batch_contains_dead(sets, dead)
            mask |= 1 << gid
        width = words_for(catalog.tuple_count)
        rows = np.vstack([set_words(s, width) for s in sets])
        flags = np.any(rows & pack_int(mask, width)[None, :], axis=1)
        # A set may hold an *older* tombstoned incarnation equal to a dead
        # tuple under a different id; such sets intersect the remaining
        # tombstone bits and are re-checked by equality.
        suspect_mask = dead_mask & ~mask
        if suspect_mask:
            suspects = np.flatnonzero(
                np.any(rows & pack_int(suspect_mask, width)[None, :], axis=1) & ~flags
            )
            for index in suspects:
                if any(t in dead for t in sets[int(index)]):
                    flags[int(index)] = True
        return [bool(flag) for flag in flags]
