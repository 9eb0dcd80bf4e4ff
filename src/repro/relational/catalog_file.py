"""The catalog mirror: a versioned, memory-mappable word-array file.

A :class:`MirrorFile` holds the catalog's bitmatrices as columnar
little-endian ``uint64`` word arrays (``np.memmap``-style views over a
shared file), so databases whose consistency matrix exceeds RAM page in on
demand — the paper's "block-based reading" property at matrix scale.  A
catalog has a mirror only when ``Catalog.save_mirror`` wrote one,
:func:`load_database` attached one, or unpickling reattached one; it then
maintains the file in place under appends and tombstones.

File layout (all integers little-endian)::

    [ header, 4096 bytes ]
    [ consistency matrix   row_cap x word_cap  u64 ]   one row per tuple gid
    [ tuple_relation       row_cap            i64 ]   gid -> relation id
    [ relation_tuples      max(r,1) x word_cap u64 ]   per-relation member mask
    [ adjacency            max(r,1) x r_words  u64 ]   schema adjacency mask
    [ dead mask            word_cap            u64 ]   tombstone bits
    [ meta                 JSON, 8-aligned         ]   relation names/schemas
    [ payload              JSON lines, grows       ]   one tuple entry per gid

The header records logical sizes (``n`` tuples, ``width`` words) separately
from capacities (``row_cap``, ``word_cap``): streaming appends write one row
and bump the logical counts; when a capacity is exhausted the file grows by
doubling (``ftruncate`` + remap) and the sections are relaid out.
Tombstones flip bits in the dead section in place.  The payload region is
append-only — one JSON line per gid, dead flags live in the dead section,
never in the payload — and is the last section, so payload appends extend
the file without moving anything.

Integrity: the header carries a CRC over itself and a running CRC over the
append-only payload, both checked on open.  ``seal()`` (the ``repro pack``
CLI and ``Catalog.save_mirror`` call it) additionally records a CRC over the
whole body and sets the SEALED flag; any later mutation clears the flag.  The
word sections mutate in place, so their checksum is only defined at seal
points — the same contract as the WAL/snapshot layer's "checksummed at rest".

Without NumPy the module still imports and reads snapshot references
(:func:`read_snapshot_entries`); writing or opening a mirror file raises
:class:`MirrorFileError`.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import List

from repro.relational.packed_mirror import np, pack_int, unpack_bits, words_for

MAGIC = b"RPMIRR01"
FORMAT_VERSION = 1
HEADER_SIZE = 4096

#: Set by :meth:`MirrorFile.seal`; cleared by any mutation.  While set,
#: ``body_crc`` covers every byte from the end of the header through the end
#: of the used payload.
FLAG_SEALED = 1

#: magic, format, flags, n, width, row_cap, word_cap, relation_count,
#: r_words, generation (4 signed), meta_off, meta_len, payload_off,
#: payload_used, payload_cap, payload_crc, body_crc — a little-endian CRC32
#: of these packed bytes follows immediately.
_HEADER = struct.Struct("<8sII6Q4q5QII")
_HEADER_CRC = struct.Struct("<I")

_GENERATION_UNSTAMPED = (-1, -1, -1, -1)


class MirrorFileError(Exception):
    """A mirror file that cannot be created, grown, decoded, or verified."""


def _encode_payload_line(entry) -> bytes:
    return json.dumps(list(entry), separators=(",", ":")).encode("utf-8") + b"\n"


def _read_header_fields(raw: bytes, path: str) -> dict:
    """Parse and verify the fixed header; raise :class:`MirrorFileError`."""
    need = _HEADER.size + _HEADER_CRC.size
    if len(raw) < need:
        raise MirrorFileError(f"{path}: truncated mirror header")
    (expected_crc,) = _HEADER_CRC.unpack_from(raw, _HEADER.size)
    if zlib.crc32(raw[: _HEADER.size]) != expected_crc:
        raise MirrorFileError(f"{path}: mirror header checksum mismatch")
    fields = _HEADER.unpack_from(raw, 0)
    (magic, fmt, flags, n, width, row_cap, word_cap, relation_count, r_words
     ) = fields[:9]
    if magic != MAGIC:
        raise MirrorFileError(f"{path}: not a catalog mirror file")
    if fmt != FORMAT_VERSION:
        raise MirrorFileError(
            f"{path}: mirror format {fmt} is not supported (expected {FORMAT_VERSION})"
        )
    generation = tuple(fields[9:13])
    meta_off, meta_len, payload_off, payload_used, payload_cap = fields[13:18]
    payload_crc, body_crc = fields[18:20]
    return {
        "flags": flags,
        "n": n,
        "width": width,
        "row_cap": row_cap,
        "word_cap": word_cap,
        "relation_count": relation_count,
        "r_words": r_words,
        "generation": generation,
        "meta_off": meta_off,
        "meta_len": meta_len,
        "payload_off": payload_off,
        "payload_used": payload_used,
        "payload_cap": payload_cap,
        "payload_crc": payload_crc,
        "body_crc": body_crc,
    }


class MirrorFile:
    """One open mirror file: header state plus mapped word-array views.

    Use :meth:`pack` to write a catalog to a fresh file and :meth:`open` for
    an existing one.  The mapped section views (``consistent``,
    ``relation_tuples``, ``adjacency``, ``dead``, ``tuple_relation``) are
    NumPy arrays over the shared mapping — mutating them mutates the file —
    and are rebound by every remap (:meth:`grow`, a payload extension), so
    read them through the file, not a saved reference.  ``version`` counts
    :meth:`append_row` and :meth:`tombstone` calls, so a reader caching
    unpacked rows knows when to drop them.
    """

    def __init__(self):
        raise TypeError("use MirrorFile.pack() or MirrorFile.open()")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def _blank(cls) -> "MirrorFile":
        self = object.__new__(cls)
        self.path = None
        self.readonly = False
        self.version = 0
        self._handle = None
        self._map = None
        self._u8 = None
        return self

    @classmethod
    def pack(cls, catalog, path: str) -> "MirrorFile":
        """Write ``catalog``'s matrices and tuple payloads to a fresh file.

        The file at ``path`` is created (or truncated) with room for the
        catalog's rows, filled, and left open for writing, unsealed and
        unstamped.
        """
        if np is None:
            raise MirrorFileError("mirror files require NumPy")
        n = catalog.tuple_count
        relation_count = catalog.relation_count
        width = words_for(n)
        meta = catalog.mirror_meta()
        meta_blob = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode("utf-8")
        self = cls._blank()
        self.path = os.path.abspath(path)
        self.flags = 0
        self.n = 0
        self.width = 1
        self.row_cap = max(n, 16)
        self.word_cap = width
        self.relation_count = relation_count
        self.r_words = words_for(max(relation_count, 1))
        self.generation = _GENERATION_UNSTAMPED
        self.meta_len = len(meta_blob)
        self.meta_off = self._dead_off() + self.word_cap * 8
        self.payload_off = self.meta_off + ((self.meta_len + 7) & ~7)
        self.payload_used = 0
        self.payload_cap = 4096
        self.payload_crc = 0
        self.body_crc = 0
        self._meta = meta
        self._handle = open(self.path, "w+b")
        self._handle.truncate(self.payload_off + self.payload_cap)
        self._remap()
        if meta_blob:
            self._u8[self.meta_off : self.meta_off + self.meta_len] = np.frombuffer(
                meta_blob, dtype=np.uint8
            )
        self._write_header()
        for gid in range(n):
            self.consistent[gid, :width] = pack_int(catalog.consistent_mask(gid), width)
            self.tuple_relation[gid] = catalog.relation_of_tuple(gid)
        self.dead[:width] = pack_int(catalog.dead_mask, width)
        for rid in range(relation_count):
            self.relation_tuples[rid, :width] = pack_int(
                catalog.relation_tuples_mask(rid), width
            )
            self.adjacency[rid, :] = pack_int(catalog.adjacency_mask(rid), self.r_words)
        for gid in range(n):
            self.append_payload(catalog.payload_entry(gid))
        self.set_counts(n, width)
        self.flush()
        return self

    @classmethod
    def open(cls, path: str, writable: bool = False) -> "MirrorFile":
        """Map an existing mirror file, verifying header and payload CRCs.

        A refused file is closed, its map and its handle, before the error
        propagates.
        """
        if np is None:
            raise MirrorFileError("mirror files require NumPy")
        self = cls._blank()
        self.path = os.path.abspath(path)
        self.readonly = not writable
        try:
            self._handle = open(self.path, "r+b" if writable else "rb")
        except OSError as error:
            raise MirrorFileError(f"cannot open mirror file {path!r}: {error}") from None
        try:
            self._verify()
        except BaseException:
            self.close()
            raise
        return self

    def _verify(self) -> None:
        """Read the header, map the file, and check its metadata and payload."""
        raw = self._handle.read(HEADER_SIZE)
        for name, value in _read_header_fields(raw, self.path).items():
            setattr(self, name, value)
        size = os.fstat(self._handle.fileno()).st_size
        if size < self.payload_off + self.payload_used:
            raise MirrorFileError(f"{self.path}: mirror file is shorter than its header claims")
        self._remap()
        meta_blob = bytes(self._u8[self.meta_off : self.meta_off + self.meta_len])
        try:
            self._meta = json.loads(meta_blob.decode("utf-8")) if self.meta_len else {}
        except (ValueError, UnicodeDecodeError):
            raise MirrorFileError(f"{self.path}: mirror metadata is corrupt") from None
        # No view of the map outlives the check, so close() can unmap it.
        crc = zlib.crc32(
            memoryview(self._map)[self.payload_off : self.payload_off + self.payload_used]
        )
        if crc != self.payload_crc:
            raise MirrorFileError(f"{self.path}: payload checksum mismatch")

    # ------------------------------------------------------------------ #
    # mapping and section views
    # ------------------------------------------------------------------ #
    def _remap(self) -> None:
        access = mmap.ACCESS_READ if self.readonly else mmap.ACCESS_WRITE
        # The previous mapping, if any, is dropped by reference only: NumPy
        # views exported from it keep it alive, and both mappings share the
        # same page-cache pages, so stale views keep reading/writing the
        # same bytes until their holders rebind.
        self._map = mmap.mmap(self._handle.fileno(), 0, access=access)
        self._u8 = np.frombuffer(self._map, dtype=np.uint8)
        if self.readonly:
            self._u8 = self._u8.view()
            self._u8.flags.writeable = False
        u64 = np.dtype("<u8")
        rc, wc = self.row_cap, self.word_cap
        rows = max(self.relation_count, 1)
        offset = HEADER_SIZE
        self.consistent = self._u8[offset : offset + rc * wc * 8].view(u64).reshape(rc, wc)
        offset += rc * wc * 8
        self.tuple_relation = self._u8[offset : offset + rc * 8].view(np.dtype("<i8"))
        offset += rc * 8
        self.relation_tuples = self._u8[offset : offset + rows * wc * 8].view(u64).reshape(rows, wc)
        offset += rows * wc * 8
        self.adjacency = (
            self._u8[offset : offset + rows * self.r_words * 8]
            .view(u64)
            .reshape(rows, self.r_words)
        )
        offset += rows * self.r_words * 8
        self.dead = self._u8[offset : offset + wc * 8].view(u64)

    def _dead_off(self) -> int:
        rows = max(self.relation_count, 1)
        return (
            HEADER_SIZE
            + self.row_cap * self.word_cap * 8  # consistency matrix
            + self.row_cap * 8  # tuple_relation
            + rows * self.word_cap * 8  # relation_tuples
            + rows * self.r_words * 8  # adjacency
        )

    @property
    def meta(self) -> dict:
        return self._meta

    @property
    def sealed(self) -> bool:
        return bool(self.flags & FLAG_SEALED)

    # ------------------------------------------------------------------ #
    # header maintenance
    # ------------------------------------------------------------------ #
    def _require_writable(self) -> None:
        if self.readonly:
            raise MirrorFileError(f"{self.path}: mirror file is mapped read-only")

    def _write_header(self) -> None:
        self._require_writable()
        packed = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.flags,
            self.n,
            self.width,
            self.row_cap,
            self.word_cap,
            self.relation_count,
            self.r_words,
            *self.generation,
            self.meta_off,
            self.meta_len,
            self.payload_off,
            self.payload_used,
            self.payload_cap,
            self.payload_crc,
            self.body_crc,
        )
        packed += _HEADER_CRC.pack(zlib.crc32(packed))
        self._u8[: len(packed)] = np.frombuffer(packed, dtype=np.uint8)

    def mark_dirty(self) -> None:
        """In-place word mutation happened: the body CRC is no longer valid."""
        if self.flags & FLAG_SEALED:
            self.flags &= ~FLAG_SEALED
            self.body_crc = 0
            self._write_header()

    def set_counts(self, n: int, width: int) -> None:
        """Record the new logical extent after an append."""
        self.n = n
        self.width = width
        if self.flags & FLAG_SEALED:
            self.flags &= ~FLAG_SEALED
            self.body_crc = 0
        self._write_header()

    def stamp_generation(self, generation) -> None:
        """Record the producing database's generation token in the header."""
        self.generation = tuple(int(part) for part in generation)
        if len(self.generation) != 4:
            raise MirrorFileError(f"generation token must have 4 parts, got {generation!r}")
        self._write_header()

    def seal(self) -> None:
        """Checksum the whole body and mark the file clean at rest."""
        self._require_writable()
        end = self.payload_off + self.payload_used
        self.body_crc = zlib.crc32(memoryview(self._map)[HEADER_SIZE:end])
        self.flags |= FLAG_SEALED
        self._write_header()
        self.flush()

    def verify_body(self) -> bool:
        """Re-checksum a sealed body; ``True`` when intact (or unsealed)."""
        if not self.sealed:
            return True
        end = self.payload_off + self.payload_used
        return zlib.crc32(memoryview(self._map)[HEADER_SIZE:end]) == self.body_crc

    # ------------------------------------------------------------------ #
    # payload (tuple entries)
    # ------------------------------------------------------------------ #
    def append_payload(self, entry) -> None:
        """Append one tuple entry line (remapping when the region is full)."""
        self._require_writable()
        line = _encode_payload_line(entry)
        if self.payload_used + len(line) > self.payload_cap:
            new_cap = self.payload_cap
            while self.payload_used + len(line) > new_cap:
                new_cap *= 2
            self._handle.truncate(self.payload_off + new_cap)
            self.payload_cap = new_cap
            self._remap()
        start = self.payload_off + self.payload_used
        self._u8[start : start + len(line)] = np.frombuffer(line, dtype=np.uint8)
        self.payload_crc = zlib.crc32(line, self.payload_crc)
        self.payload_used += len(line)
        if self.flags & FLAG_SEALED:
            self.flags &= ~FLAG_SEALED
            self.body_crc = 0
        self._write_header()

    def payload_bytes(self) -> bytes:
        """The used payload region as bytes (one JSON line per gid)."""
        return bytes(self._u8[self.payload_off : self.payload_off + self.payload_used])

    def read_payload_entries(self) -> List[list]:
        """Decode the payload region: exactly ``n`` tuple entries, gid order."""
        lines = self.payload_bytes().splitlines()
        if len(lines) != self.n:
            raise MirrorFileError(
                f"{self.path}: payload holds {len(lines)} entries, header claims {self.n}"
            )
        return [json.loads(line) for line in lines]

    # ------------------------------------------------------------------ #
    # catalog maintenance
    # ------------------------------------------------------------------ #
    def append_row(self, gid: int, mask: int, rid: int, payload) -> None:
        """Mirror ``Catalog.append_tuple``: one new row plus one bit-column.

        The tuple's ``payload`` entry rides into the payload region and the
        header's logical counts advance, so the file is attachable after
        every append (amortized O(n/64) words via capacity doubling).
        """
        width = max(self.width, words_for(gid + 1))
        self.grow(gid + 1, width)
        self.consistent[gid, :width] = pack_int(mask, width)
        bit = np.uint64(1 << (gid & 63))
        word = gid >> 6
        if mask:
            rows = np.flatnonzero(unpack_bits(mask, gid))
            self.consistent[rows, word] |= bit
        self.relation_tuples[rid, word] |= bit
        self.tuple_relation[gid] = rid
        self.version += 1
        self.append_payload(payload)
        self.set_counts(gid + 1, width)

    def tombstone(self, gid: int) -> None:
        """Mirror ``Catalog.tombstone``: one bit in the dead words."""
        self._require_writable()
        self.dead[gid >> 6] |= np.uint64(1 << (gid & 63))
        self.version += 1
        self.mark_dirty()

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def grow(self, need_rows: int, need_words: int) -> None:
        """Double capacities until they cover the need; relay out in place.

        The logical data (``n`` rows by ``width`` words, plus the meta and
        payload bytes) is read into RAM, the file is extended, and every
        section is rewritten at its new offset, so appends stay amortized
        O(row).
        """
        self._require_writable()
        new_rows = self.row_cap
        while new_rows < need_rows:
            new_rows *= 2
        new_words = self.word_cap
        while new_words < need_words:
            new_words *= 2
        if new_rows == self.row_cap and new_words == self.word_cap:
            return
        n, width = self.n, self.width
        consistent = np.array(self.consistent[:n, :width])
        tuple_relation = np.array(self.tuple_relation[:n])
        relation_tuples = np.array(self.relation_tuples[:, :width])
        adjacency = np.array(self.adjacency)
        dead = np.array(self.dead[:width])
        meta_blob = bytes(self._u8[self.meta_off : self.meta_off + self.meta_len])
        payload = self.payload_bytes()

        self.row_cap = new_rows
        self.word_cap = new_words
        self.meta_off = self._dead_off() + self.word_cap * 8
        self.payload_off = self.meta_off + ((self.meta_len + 7) & ~7)
        while self.payload_cap < self.payload_used:
            self.payload_cap *= 2
        self._handle.truncate(self.payload_off + self.payload_cap)
        self._remap()
        # Zero the whole body: the old layout's bytes are garbage at the new
        # offsets.
        self._u8[HEADER_SIZE:] = 0
        self.consistent[:n, :width] = consistent
        self.tuple_relation[:n] = tuple_relation
        self.relation_tuples[:, :width] = relation_tuples
        self.adjacency[:, :] = adjacency
        self.dead[:width] = dead
        if meta_blob:
            self._u8[self.meta_off : self.meta_off + self.meta_len] = np.frombuffer(
                meta_blob, dtype=np.uint8
            )
        if payload:
            self._u8[self.payload_off : self.payload_off + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8
            )
        if self.flags & FLAG_SEALED:
            self.flags &= ~FLAG_SEALED
            self.body_crc = 0
        self._write_header()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> None:
        """Flush the mapping (cross-host durability; same-host readers share pages anyway)."""
        if self._map is not None and not self.readonly:
            self._map.flush()

    def release_pages(self) -> None:
        """Advise the OS to drop resident clean pages (bounds peak RSS)."""
        if self._map is None:
            return
        madvise = getattr(self._map, "madvise", None)
        dontneed = getattr(mmap, "MADV_DONTNEED", None)
        if madvise is not None and dontneed is not None:
            if not self.readonly:
                self._map.flush()
            madvise(dontneed)

    def close(self) -> None:
        """Drop the mapping and close the file."""
        self.consistent = None
        self.relation_tuples = None
        self.adjacency = None
        self.dead = None
        self.tuple_relation = None
        self._u8 = None
        if self._map is not None:
            try:
                self._map.close()
            except BufferError:  # exported views still alive; GC reclaims later
                pass
            self._map = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def size_bytes(self) -> int:
        """The current on-disk size of the mirror file."""
        return self.payload_off + self.payload_cap

    def __repr__(self) -> str:
        mode = "ro" if self.readonly else "rw"
        return (
            f"MirrorFile({self.path!r}, {mode}, n={self.n}, width={self.width}, "
            f"caps=({self.row_cap}x{self.word_cap}), sealed={self.sealed})"
        )


# --------------------------------------------------------------------------- #
# whole-database attach (``repro pack`` files, mapped catalogs)
# --------------------------------------------------------------------------- #

def load_database(path: str, writable: bool = False):
    """Reconstruct a light ``Database`` shell around a mirror file.

    The relations and live tuples are rebuilt in O(n) from the payload region
    (gid-issuance order, label reuse replayed exactly like
    :meth:`Database.restore_state`), while the O(n²)-bit consistency matrix is
    *attached*: the catalog serves consistency straight from the mapped words
    and never materialises the big-int matrix.  The restored generation token
    must equal the one stamped in the header — a mismatch means the file does
    not describe the database the caller expects, and attaching would produce
    wrong streams.
    """
    from repro.relational.catalog import Catalog
    from repro.relational.database import Database
    from repro.relational.nulls import NULL
    from repro.relational.relation import Relation

    handle = MirrorFile.open(path, writable=writable)
    meta = handle.meta
    relations = meta.get("relations")
    if relations is None:
        handle.close()
        raise MirrorFileError(f"{path}: mirror file carries no relation metadata")
    database = Database()
    for name, attributes, label_prefix in relations:
        database.add_relation(Relation(name, attributes, label_prefix=label_prefix))
    entries = handle.read_payload_entries()
    dead_words = bytes(np.ascontiguousarray(handle.dead[: handle.width]))
    dead_mask = int.from_bytes(dead_words, "little")
    tuples_by_gid = []
    live: dict = {}
    for gid, (relation_name, label, values, importance, probability) in enumerate(entries):
        relation = database.relation(relation_name)
        if (relation_name, label) in live:
            # Label reuse: an update tombstoned the old incarnation and
            # re-issued the label; replaying remove+add keeps scan order
            # identical to the producing database's.
            relation.remove(label)
        t = relation.add(
            tuple(NULL if v is None else v for v in values),
            label=label,
            importance=importance,
            probability=probability,
        )
        tuples_by_gid.append(t)
        live[(relation_name, label)] = gid
    for (relation_name, label), gid in live.items():
        if (dead_mask >> gid) & 1:
            database.relation(relation_name).remove(label)
    catalog = Catalog._attach(handle, tuples_by_gid, dead_mask)
    database._catalog_cache = catalog
    database._catalog_key = database._structure_key()
    generation = handle.generation
    if generation == _GENERATION_UNSTAMPED:
        handle.close()
        raise MirrorFileError(
            f"{path}: mirror file carries no generation stamp; "
            "write it with Database.save_mirror or `repro pack`"
        )
    database.catalog_rebuilds = generation[0]
    database.epoch = generation[1]
    if tuple(database.generation) != generation:
        handle.close()
        raise MirrorFileError(
            f"{path}: restored generation {tuple(database.generation)} does not "
            f"match the stamped {generation}"
        )
    return database


def read_snapshot_entries(ref: dict) -> List[list]:
    """Materialise a snapshot's by-reference tuple entries.

    ``ref`` is the ``tuples_ref`` written by ``Database.snapshot_state`` for
    a file-backed catalog: the mirror path, the payload length *at snapshot
    time*, the entry count, and the dead mask (hex) at that moment.  The
    payload region is append-only, so reading the recorded prefix of the
    file's current payload reproduces the snapshot's entries exactly even
    after later ingest; the dead flags come from the ref, not from the
    (possibly newer) dead section.  Pure file I/O — works without NumPy.
    """
    path = ref["path"]
    count = int(ref["count"])
    length = int(ref["payload_length"])
    dead_mask = int(ref.get("dead_mask") or "0", 16)
    try:
        with open(path, "rb") as handle:
            header = _read_header_fields(handle.read(HEADER_SIZE), path)
            if length > header["payload_used"]:
                raise MirrorFileError(
                    f"{path}: snapshot references {length} payload bytes, "
                    f"file holds {header['payload_used']}"
                )
            handle.seek(header["payload_off"])
            raw = handle.read(length)
    except OSError as error:
        raise MirrorFileError(f"cannot read mirror file {path!r}: {error}") from None
    if len(raw) != length:
        raise MirrorFileError(f"{path}: mirror payload is shorter than the snapshot recorded")
    lines = raw.splitlines()
    if len(lines) != count:
        raise MirrorFileError(
            f"{path}: snapshot references {count} entries, payload prefix holds {len(lines)}"
        )
    entries = []
    for gid, line in enumerate(lines):
        relation_name, label, values, importance, probability = json.loads(line)
        entries.append(
            [relation_name, label, values, importance, probability,
             bool((dead_mask >> gid) & 1)]
        )
    return entries
