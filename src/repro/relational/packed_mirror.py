"""The packed mirror: the catalog's bitmatrices as ``uint64`` word arrays.

:class:`PackedMirror` is a columnar mirror of the catalog's bitmatrices:
every big-int bitmask becomes a row of little-endian ``uint64`` words, so a
mask of ``n`` tuples occupies ``ceil(n/64)`` words.  It is the in-memory
face of the mirror file format (:mod:`repro.relational.catalog_file`), and
it backs mapped catalogs (``repro pack``, ``load_database``), whose
consistency rows are served from its file.

Layout invariant: for every mask ``m`` and width ``w``,
``pack_int(m, w)`` is exactly ``m.to_bytes(w*8, 'little')`` viewed as
``<u8`` words — so ``unpack_to_int(pack_int(m, w)) == m`` and the packed
rows can always be checked bit-for-bit against the catalog's big ints
(``tests/relational/test_packed_mirror.py`` does).

The mirror is created lazily by :meth:`Catalog.packed_mirror
<repro.relational.catalog.Catalog.packed_mirror>` and maintained
*incrementally* by the catalog's ``append_tuple``/``tombstone`` hooks:
appending a tuple writes one packed row and ORs one bit-column
(amortized O(n/64) words via capacity doubling), a tombstone sets one bit.

Only building or attaching a mirror imports this module, so NumPy is needed
for mapped catalogs alone; :func:`numpy_available` answers without it.
"""

from __future__ import annotations

from typing import Optional

from repro.relational.catalog_file import MirrorFile, MirrorFileError

try:  # pragma: no cover - exercised by the no-NumPy CI leg
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: All packed arrays use explicit little-endian words so ``pack_int`` /
#: ``unpack_to_int`` round-trip through ``int.to_bytes(..., "little")`` on
#: any host byte order.
U64 = "<u8"


def numpy_available() -> bool:
    """Whether NumPy imported: mirrors and mapped catalogs need it."""
    return np is not None


def words_for(bits: int) -> int:
    """Words needed for ``bits`` bit positions (at least one)."""
    return max(1, (bits + 63) >> 6)


def pack_int(mask: int, width: int):
    """A big-int bitmask as ``width`` little-endian ``uint64`` words (read-only)."""
    return np.frombuffer(mask.to_bytes(width * 8, "little"), dtype=U64)


def unpack_to_int(words) -> int:
    """The inverse of :func:`pack_int`."""
    return int.from_bytes(np.ascontiguousarray(words).tobytes(), "little")


def unpack_bits(mask: int, bits: int):
    """A big-int bitmask as a boolean array of ``bits`` positions."""
    if bits <= 0:
        return np.zeros(0, dtype=bool)
    raw = np.frombuffer(mask.to_bytes((bits + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:bits].astype(bool)


class PackedMirror:
    """The catalog's bitmatrices as packed ``uint64`` arrays, kept in sync.

    Built once from the catalog's big ints, then maintained incrementally by
    the catalog's append/tombstone hooks.  Arrays are over-allocated
    (capacity doubling in both rows and words), with ``n``/``width`` marking
    the logical extent, so streaming appends stay amortized O(row).

    Two backings share every code path — the arrays differ only in
    where their bytes live:

    ``backing="ram"``
        Anonymous ``np.zeros`` allocations (the original mirror).
    ``backing="mmap"``
        Views over a :class:`~repro.relational.catalog_file.MirrorFile`
        mapping, so the matrices page in on demand and survive the process.
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
        """Wrap an already-populated mirror file (a loaded database's).

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
            raise MirrorFileError(
                f"cannot append through a read-only mirror mapping ({self.file.path})"
            )
        width = words_for(gid + 1)
        self._grow(gid + 1, width)
        self.width = max(self.width, width)
        self.consistent[gid, :self.width] = pack_int(mask, self.width)
        bit = np.uint64(1 << (gid & 63))
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
            raise MirrorFileError(
                f"cannot tombstone through a read-only mirror mapping ({self.file.path})"
            )
        self.dead[gid >> 6] |= np.uint64(1 << (gid & 63))
        self.version += 1
        if self.file is not None:
            self.file.mark_dirty()

    def dead_words(self):
        return self.dead[:self.width]

    def consistent_row(self, gid: int):
        return self.consistent[gid, :self.width]

    def row_as_int(self, gid: int) -> int:
        """The consistency row as a big int (parity checks in tests)."""
        return unpack_to_int(self.consistent_row(gid))
