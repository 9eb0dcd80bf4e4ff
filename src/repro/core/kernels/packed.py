"""The packed kernel: bitset inner loops on NumPy ``uint64`` word arrays.

The big-int representation answers one candidate per Python bytecode loop
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

Every operation here obeys the parity contract of
:mod:`repro.core.kernels.base`: inputs the packed representation cannot
express (uninterned sets, mixed catalogs, uncatalogued tuples, ambiguous
dead-tuple incarnations) are delegated to the big-int reference kernel for
that call, so answers — and the serial-equivalent ``scanned`` counts — are
identical by construction, not by luck.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple as TupleType

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


def popcount_words(words: np.ndarray) -> int:
    """Word-wise population count of a packed array."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return int(bitwise_count(words).sum())
    return int(np.unpackbits(np.ascontiguousarray(words).view(np.uint8)).sum())


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

    Answers and ``sets_scanned`` counts are identical across backings by
    construction: :class:`PackedKernel` reads the same attributes either way.
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


class _GroupMatrix:
    """The packed (negated) rows of one store group, grown append-only.

    ``CompleteStore`` groups only ever *gain* sets between retractions (the
    store clears its kernel cache on retract), so the matrix extends by the
    suffix on each probe.  ``ensure`` returns ``None`` when a group member is
    outside the packed representation — the caller then falls back whole.
    """

    __slots__ = ("catalog", "width", "negated", "built")

    def __init__(self, catalog, width: int):
        self.catalog = catalog
        self.width = width
        self.negated = np.zeros((0, width), dtype=U64)
        self.built = 0

    def ensure(self, group) -> Optional[np.ndarray]:
        if self.built < len(group):
            fresh = group[self.built:]
            for stored in fresh:
                if stored._id_mask is None or stored._catalog is not self.catalog:
                    return None
            rows = np.vstack([~set_words(stored, self.width) for stored in fresh])
            self.negated = np.vstack([self.negated, rows]) if self.built else rows
            self.built = len(group)
        return self.negated


class PackedKernel(Kernel):
    """Vectorized batch operations over the packed-word representation."""

    name = "packed"

    #: Empirical regime cutoffs (measured by
    #: ``benchmarks/bench_e13_kernels.py``): below each one the big-int
    #: reference is faster — a CPython big-int ``AND`` is already one C
    #: call, so vectorization only pays once a whole batch amortizes the
    #: NumPy dispatch and row-gathering — and the call delegates.  Same
    #: answers either way, per the parity contract.  ``inf`` marks ops
    #: where the reference won at every measured size: the early-breaking
    #: Line-14 merge probe and the one-AND-per-set tombstone sweep.  The
    #: vectorized forms stay available (parity tests zero the cutoffs) for
    #: workloads wide enough to tip the balance.
    MIN_GROUP = 64  #: batch_contains_superset — stored sets in the bucket
    MIN_WAITING = float("inf")  #: first_jcc_union — waiting sets per probe
    #: first_jcc_union cutoff when the catalog serves rows from a mapped
    #: mirror file (``Catalog.rows_mapped``): each big-int mask read then
    #: unpacks packed words on demand, so the reference loop pays an
    #: unpack per pair while the vectorized form reads ``mirror.consistent``
    #: rows in place — the crossover collapses to "always vectorize".
    MIN_WAITING_MAPPED = 1
    MIN_TOMBSTONED = float("inf")  #: batch_contains_tombstoned — sets per sweep
    MIN_DEAD = 64  #: batch_contains_dead — sets per equality sweep

    #: first_jcc_union evaluates this many waiting sets per array op; the
    #: serial loop stops at the first merge partner, so chunking bounds the
    #: wasted vector work to one chunk past the match.
    WAITING_CHUNK = 256

    def __init__(self):
        self._reference = BigintKernel()

    # -------------------------------------------------------------- #
    # subsumption (Line 11)
    # -------------------------------------------------------------- #
    def batch_contains_superset(
        self, group, probes, cache: Optional[dict] = None, cache_key=None
    ) -> TupleType[List[bool], int]:
        if not probes or not group:
            return [False] * len(probes), 0
        if len(group) < self.MIN_GROUP:
            return self._reference.batch_contains_superset(group, probes)
        first = probes[0]
        catalog = first._catalog if first._id_mask is not None else None
        if catalog is None or any(
            p._id_mask is None or p._catalog is not catalog for p in probes
        ):
            return self._reference.batch_contains_superset(group, probes)
        width = words_for(catalog.tuple_count)
        entry = cache.get(cache_key) if cache is not None else None
        if entry is None or entry.catalog is not catalog or entry.width != width:
            entry = _GroupMatrix(catalog, width)
            if cache is not None:
                cache[cache_key] = entry
        negated = entry.ensure(group)
        if negated is None:
            if cache is not None:
                cache.pop(cache_key, None)
            return self._reference.batch_contains_superset(group, probes)
        probe_rows = np.vstack([set_words(p, width) for p in probes])
        # subset[i, j]: no probe-i bit falls outside stored set j.
        subset = ~np.any(probe_rows[:, None, :] & negated[None, :, :], axis=2)
        size = len(group)
        answers: List[bool] = []
        scanned = 0
        for hits in subset:
            if hits.any():
                answers.append(True)
                # The serial loop breaks at the first superset: it scanned
                # that stored set and everything before it.
                scanned += int(np.argmax(hits)) + 1
            else:
                answers.append(False)
                scanned += size
        return answers, scanned

    # -------------------------------------------------------------- #
    # merge probe (Line 14)
    # -------------------------------------------------------------- #
    def first_jcc_union(self, waiting_list: Sequence, candidate) -> int:
        if not waiting_list:
            return -1
        catalog = candidate._catalog if candidate._id_mask is not None else None
        min_waiting = self.MIN_WAITING
        if catalog is not None and catalog.rows_mapped:
            min_waiting = self.MIN_WAITING_MAPPED
        if len(waiting_list) < min_waiting:
            return self._reference.first_jcc_union(waiting_list, candidate)
        if catalog is None or not candidate._tuples:
            return self._reference.first_jcc_union(waiting_list, candidate)
        mirror = catalog.packed_mirror()
        width = mirror.width
        gids = np.flatnonzero(unpack_bits(candidate._id_mask, mirror.n))
        negated = ~mirror.consistent[gids, :width]
        shifts = (gids & 63).astype(U64)
        words = gids >> 6
        candidate_words = set_words(candidate, width)
        relation_mask = candidate._relation_mask
        chunk_size = max(1, self.WAITING_CHUNK)
        for start in range(0, len(waiting_list), chunk_size):
            chunk = waiting_list[start : start + chunk_size]
            # Fill a preallocated chunk matrix (``vstack`` re-validates and
            # copies every row through ``atleast_2d`` — measurable at this
            # call rate) and validate each waiting set on the way: any set
            # that is uncatalogued or foreign drops the whole probe to the
            # reference, which recomputes from scratch (pure function).
            rows = np.empty((len(chunk), width), dtype=U64)
            for j, w in enumerate(chunk):
                if w._id_mask is None or w._catalog is not catalog or not w._tuples:
                    return self._reference.first_jcc_union(waiting_list, candidate)
                rows[j] = set_words(w, width)
            # pair_bad[j, c]: some member of waiting j is inconsistent with
            # candidate member c (the consistency matrix also charges a
            # second tuple of c's relation here).
            pair_bad = np.any(rows[:, None, :] & negated[None, :, :], axis=2)
            # A candidate member already inside the waiting set is not
            # incoming.
            member = ((rows[:, words] >> shifts) & _ONE).astype(bool)
            consistent = ~np.any(pair_bad & ~member, axis=1)
            shares = np.any(rows & candidate_words[None, :], axis=1)
            for j in np.flatnonzero(consistent):
                if shares[j] or (chunk[j]._adjacent_relations & relation_mask):
                    return start + int(j)
        return -1

    # -------------------------------------------------------------- #
    # absorb test
    # -------------------------------------------------------------- #
    def batch_can_absorb(self, catalog, id_mask: int, relation_mask: int, gids):
        mirror = catalog.packed_mirror()
        width = mirror.width
        gids = np.asarray(gids, dtype=np.int64)
        if gids.size == 0:
            return np.zeros(0, dtype=bool)
        row = pack_int(id_mask, width)
        inconsistent = np.any(row[None, :] & ~mirror.consistent[gids, :width], axis=1)
        relation_ids = mirror.tuple_relation[gids]
        relation_row = pack_int(relation_mask, mirror.r_words)
        adjacent = np.any(mirror.adjacency[relation_ids] & relation_row[None, :], axis=1)
        return ~inconsistent & adjacent

    # -------------------------------------------------------------- #
    # retraction sweeps
    # -------------------------------------------------------------- #
    def batch_contains_tombstoned(self, sets, catalog) -> List[bool]:
        if not sets:
            return []
        if not catalog.dead_mask:
            return [False] * len(sets)
        if len(sets) < self.MIN_TOMBSTONED:
            return self._reference.batch_contains_tombstoned(sets, catalog)
        width = words_for(catalog.tuple_count)
        dead_row = pack_int(catalog.dead_mask, width)
        flags: List[bool] = []
        packed_indices: List[int] = []
        packed_rows: List[np.ndarray] = []
        for index, tuple_set in enumerate(sets):
            if tuple_set._id_mask is not None and tuple_set._catalog is catalog:
                flags.append(False)
                packed_indices.append(index)
                packed_rows.append(set_words(tuple_set, width))
            else:
                flags.append(tuple_set.contains_tombstoned(catalog))
        if packed_rows:
            hits = np.any(np.vstack(packed_rows) & dead_row[None, :], axis=1)
            for index, hit in zip(packed_indices, hits):
                flags[index] = bool(hit)
        return flags

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

    def popcount(self, mask: int) -> int:
        return popcount_words(pack_int(mask, words_for(max(mask.bit_length(), 1))))
