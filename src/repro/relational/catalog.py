"""The interned tuple catalog: dense ids and precomputed bitmatrices.

The inner loops of ``GetNextResult`` (subsumption at Line 11, merge at
Line 14, maximal extension at Lines 2-6) spend their time deciding, over and
over, whether pairs of tuples are join consistent and whether sets of
relations are connected.  Both facts are properties of the *database*, not of
the tuple sets being assembled, so they can be computed once.

A :class:`Catalog` is built from a :class:`~repro.relational.database.Database`
and assigns

* each relation a dense integer id (its position in database order), and
* each tuple a dense global id (its position in database scan order),

then precomputes two bitmatrices over those ids:

* the **join-consistency matrix**: for every tuple ``t``, the bitmask of the
  tuples ``t'`` (of other relations) such that ``{t, t'}`` is join consistent.
  Tuples of relations that share no attribute are vacuously consistent;
  distinct tuples of the *same* relation are never marked consistent, because
  they can never coexist in a connected tuple set (condition (i) of the JCC
  definition) — this convention lets set-level tests reduce to single ``AND``
  operations;
* the **schema-adjacency matrix**: for every relation, the bitmask of the
  relations whose schemas share an attribute with it.

With these in hand, :class:`~repro.core.tupleset.TupleSet` represents a set as
a pair of integer bitmasks (tuple ids, relation ids) and the paper's hot-path
predicates become a handful of bitwise operations — see
:mod:`repro.core.tupleset` for the operation-by-operation mapping.

Catalogs are snapshots that support **append-only maintenance**: adding a
tuple through :meth:`Database.add_tuple
<repro.relational.database.Database.add_tuple>` extends the cached catalog in
place via :meth:`Catalog.append_tuple` — the new tuple gets the next dense id
and one row/column of the join-consistency bitmatrix is filled in, O(s) work
instead of the O(s²) rebuild.  Existing ids and masks never change, so tuple
sets interned before the append stay valid.  Any other structural change
(adding a relation, or adding tuples behind the database's back) still
invalidates the snapshot and triggers a rebuild, counted by
``Database.catalog_rebuilds``.

Deletions are append-only too: :meth:`Catalog.tombstone` marks a tuple's
dense id *dead* in a bitmask instead of compacting the id space.  Nothing
else moves — the bitmatrices, the ids, and every tuple set interned before
the deletion stay valid — and liveness questions reduce to one ``AND``
against :attr:`Catalog.dead_mask` (the store layer's retraction sweep and
the serving layer's epoch revalidation both run on exactly that check).
Dead ids are reclaimed only by an explicit rebuild
(:meth:`Database.compact <repro.relational.database.Database.compact>`).
"""

from __future__ import annotations

import os
import tempfile
import warnings
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple as TupleType

from repro.relational.database import Database
from repro.relational.nulls import is_null
from repro.relational.tuples import Tuple


class _MirrorRows:
    """Big-int row access over an attached (file-backed) mirror.

    Stands in for the catalog's ``_consistent`` list in catalogs attached to
    a mirror file: ``rows[gid]`` unpacks one mapped row to a big int on
    demand, so code paths that want big-int masks (the step, the sweeps,
    parity checks, ``pair_consistent``) work unchanged while the matrix
    itself stays on disk and pages in lazily.

    Unpacking a packed row into a Python big int costs microseconds, and
    the merge loop reads the same handful of rows millions of times, so
    unpacked rows are memoised in a bounded dict.  Appends flip bits in
    *other* rows' columns (the new tuple's bit is OR'd into every
    consistent row), so the cache keys on the mirror's ``version``
    counter and drops wholesale whenever it moves.
    """

    #: Cached big ints are one machine word per 64 tuples; at the cap the
    #: cache tops out around a dozen megabytes even for ~100k-tuple runs,
    #: so it cannot dominate the out-of-core memory story.
    CACHE_ROWS = 4096

    __slots__ = ("_mirror", "_cache", "_stamp")

    def __init__(self, mirror):
        self._mirror = mirror
        self._cache = {}
        self._stamp = mirror.version

    def __len__(self) -> int:
        return self._mirror.n

    def __getitem__(self, gid: int) -> int:
        from repro.relational.packed_mirror import unpack_to_int

        mirror = self._mirror
        if gid < 0:
            gid += mirror.n
        if not 0 <= gid < mirror.n:
            raise IndexError("tuple id out of range")
        cache = self._cache
        if self._stamp != mirror.version:
            cache.clear()
            self._stamp = mirror.version
        else:
            row = cache.get(gid)
            if row is not None:
                return row
        row = unpack_to_int(mirror.consistent[gid, : mirror.width])
        if len(cache) >= self.CACHE_ROWS:
            cache.clear()
        cache[gid] = row
        return row


def _group_on(relation, attributes, tuple_ids) -> Dict[tuple, List[int]]:
    """The ids of ``relation``'s tuples, grouped by their values on ``attributes``.

    A tuple with a null, or with a value unequal to itself (NaN), on one of
    the attributes joins nothing and is left out — exactly the pairs
    ``Tuple.join_consistent_with`` rejects.
    """
    groups: Dict[tuple, List[int]] = {}
    for t in relation:
        key = tuple(t[attribute] for attribute in attributes)
        if any(is_null(value) or value != value for value in key):
            continue
        groups.setdefault(key, []).append(tuple_ids[t])
    return groups


def _join_adjacent(first, second, tuple_ids, consistent: List[int]) -> None:
    """Mark the join-consistent pairs of two adjacent relations (a hash join).

    Two tuples are consistent exactly when they agree, with non-null values,
    on every shared attribute — when they fall into the same group — so each
    matching pair of groups ORs one side's id mask into every row of the
    other.  The work is linear in the tuples plus the consistent pairs.
    """
    shared = sorted(first.schema.shared_attributes(second.schema))
    first_groups = _group_on(first, shared, tuple_ids)
    second_groups = _group_on(second, shared, tuple_ids)
    for key, first_ids in first_groups.items():
        second_ids = second_groups.get(key)
        if second_ids is None:
            continue
        first_mask = 0
        for gid in first_ids:
            first_mask |= 1 << gid
        second_mask = 0
        for gid in second_ids:
            second_mask |= 1 << gid
        for gid in first_ids:
            consistent[gid] |= second_mask
        for gid in second_ids:
            consistent[gid] |= first_mask


class Catalog:
    """Dense ids and precomputed bitmatrices for one database snapshot."""

    __slots__ = (
        "_relation_ids",
        "_relation_names",
        "_relation_meta",
        "_relation_adjacency",
        "_relation_tuples",
        "_tuple_ids",
        "_tuples",
        "_tuple_relation",
        "_consistent",
        "_all_tuples_mask",
        "_dead_mask",
        "_connected_cache",
        "_relation_sets",
        "_packed_mirror",
        "_mirror_path",
    )

    def __init__(self, database: Database):
        relations = list(database.relations)
        self._relation_ids: Dict[str, int] = {}
        self._relation_names: List[str] = []
        for rid, relation in enumerate(relations):
            self._relation_ids[relation.name] = rid
            self._relation_names.append(relation.name)
        # Enough schema to rebuild the relations elsewhere — written into
        # mirror-file metadata so ``load_database`` can reconstruct the
        # Database shell.
        self._relation_meta = [
            (relation.name, tuple(relation.schema.attributes), relation._label_prefix)
            for relation in relations
        ]

        count = len(relations)
        adjacency = [0] * count
        for i in range(count):
            for j in range(i + 1, count):
                if relations[i].schema.connects_to(relations[j].schema):
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
        self._relation_adjacency = adjacency

        tuple_ids: Dict[Tuple, int] = {}
        tuples: List[Tuple] = []
        tuple_relation: List[int] = []
        relation_tuples = [0] * count
        for rid, relation in enumerate(relations):
            for t in relation:
                gid = len(tuples)
                tuple_ids[t] = gid
                tuples.append(t)
                tuple_relation.append(rid)
                relation_tuples[rid] |= 1 << gid
        self._tuple_ids = tuple_ids
        self._tuples = tuples
        self._tuple_relation = tuple_relation
        self._relation_tuples = relation_tuples
        self._all_tuples_mask = (1 << len(tuples)) - 1

        # Join-consistency bitmatrix.  Tuples of non-adjacent distinct
        # relations share no attribute and are vacuously join consistent;
        # tuples of adjacent relations are matched by grouping both sides on
        # their shared-attribute values; distinct tuples of one relation are
        # never consistent (see the module docstring).
        consistent = [0] * len(tuples)
        for i in range(count):
            vacuous = 0
            for j in range(count):
                if j != i and not (adjacency[i] >> j) & 1:
                    vacuous |= relation_tuples[j]
            if vacuous:
                members = relation_tuples[i]
                while members:
                    low = members & -members
                    consistent[low.bit_length() - 1] |= vacuous
                    members ^= low
        for i in range(count):
            for j in range(i + 1, count):
                if (adjacency[i] >> j) & 1:
                    _join_adjacent(relations[i], relations[j], tuple_ids, consistent)
        self._consistent = consistent
        self._dead_mask = 0
        self._connected_cache: Dict[int, bool] = {1: True} if count else {}
        self._relation_sets: Dict[int, FrozenSet[str]] = {}
        # Columnar mirror of the bitmatrices (mapped catalogs), built
        # lazily by packed_mirror() and maintained by the append/tombstone
        # hooks below.  When the mirror is file-backed, _mirror_path names
        # the file so pickled catalogs can reattach instead of rebuilding.
        self._packed_mirror = None
        self._mirror_path = None

    # ------------------------------------------------------------------ #
    # append-only maintenance
    # ------------------------------------------------------------------ #
    def append_tuple(self, t: Tuple) -> int:
        """Extend the catalog in place with one new tuple; return its id.

        The tuple receives the next dense global id, its relation's tuple
        mask and the all-tuples mask grow by one bit, and the symmetric
        join-consistency bitmatrix gains one row (the new tuple's mask) and
        one column (the new tuple's bit ORed into every consistent existing
        tuple's mask).  The schema-adjacency matrix and the connectivity memo
        are untouched — appending a tuple cannot change the relation graph.

        Raises ``KeyError`` when the tuple's relation is not catalogued and
        ``ValueError`` when the tuple already is; both indicate the caller
        should rebuild instead.  A tuple equal to a *tombstoned* one may be
        re-appended (an in-place update back to earlier values): it receives
        a fresh id and the lookup maps to the live incarnation.
        """
        rid = self._relation_ids[t.relation_name]
        existing = self._tuple_ids.get(t)
        if existing is not None and not (self._dead_mask >> existing) & 1:
            raise ValueError(f"tuple {t.label!r} is already catalogued")
        mirror = self._packed_mirror
        inline = isinstance(self._consistent, list)
        if mirror is not None and mirror.file is not None and mirror.file.readonly:
            if inline:
                # The big ints remain the source of truth; drop the
                # unwritable file-backed mirror (it rebuilds lazily, in RAM)
                # rather than fail the append.
                self._packed_mirror = None
                self._mirror_path = None
                mirror = None
            else:
                # Attached catalog: the file IS the matrix — refuse before
                # mutating anything.
                from repro.relational.catalog_file import MirrorFileError

                raise MirrorFileError(
                    f"catalog is attached read-only to {mirror.file.path}; "
                    "reopen with writable=True to append"
                )
        gid = len(self._tuples)
        bit = 1 << gid
        self._tuple_ids[t] = gid
        self._tuples.append(t)
        self._tuple_relation.append(rid)
        self._relation_tuples[rid] |= bit
        self._all_tuples_mask |= bit

        adjacency = self._relation_adjacency[rid]
        consistent = self._consistent
        mask = 0
        for j in range(len(self._relation_names)):
            if j == rid:
                continue
            # Dead tuples are skipped: nothing live ever asks about them, and
            # their own (frozen) rows are filtered by the live mask instead.
            others = self._relation_tuples[j] & ~bit & ~self._dead_mask
            if not others:
                continue
            if not (adjacency >> j) & 1:
                # Non-adjacent relations share no attribute: vacuously
                # consistent in both directions.
                mask |= others
                if inline:
                    while others:
                        low = others & -others
                        consistent[low.bit_length() - 1] |= bit
                        others ^= low
            else:
                while others:
                    low = others & -others
                    other_gid = low.bit_length() - 1
                    if t.join_consistent_with(self._tuples[other_gid]):
                        mask |= low
                        if inline:
                            consistent[other_gid] |= bit
                    others ^= low
        if inline:
            # Attached catalogs skip the big-int column updates entirely: the
            # mirror's append_row writes the same bits into the mapped words,
            # and _MirrorRows serves them back on demand.
            consistent.append(mask)
        if mirror is not None:
            payload = self.payload_entry(gid) if mirror.file is not None else None
            mirror.append_row(gid, mask, rid, payload=payload)
        return gid

    def tombstone(self, t: Tuple) -> int:
        """Mark a catalogued tuple dead in place; return its (retired) id.

        Nothing is compacted: the id stays assigned, the bitmatrices keep
        their rows, and tuple sets interned before the deletion stay valid —
        only the dead bit moves, so the whole operation is O(1).  Raises
        ``KeyError`` for an uncatalogued tuple and ``ValueError`` for one
        that is already dead.
        """
        gid = self._tuple_ids.get(t)
        if gid is None:
            raise KeyError(f"tuple {t.label!r} is not catalogued")
        bit = 1 << gid
        if self._dead_mask & bit:
            raise ValueError(f"tuple {t.label!r} is already tombstoned")
        mirror = self._packed_mirror
        if mirror is not None and mirror.file is not None and mirror.file.readonly:
            if isinstance(self._consistent, list):
                self._packed_mirror = None
                self._mirror_path = None
                mirror = None
            else:
                from repro.relational.catalog_file import MirrorFileError

                raise MirrorFileError(
                    f"catalog is attached read-only to {mirror.file.path}; "
                    "reopen with writable=True to tombstone"
                )
        self._dead_mask |= bit
        if mirror is not None:
            mirror.tombstone(gid)
        return gid

    # ------------------------------------------------------------------ #
    # the packed columnar mirror
    # ------------------------------------------------------------------ #
    def packed_mirror(self):
        """The catalog's bitmatrices as packed ``uint64`` word arrays.

        Built lazily on first use (requires NumPy) and from then on
        maintained incrementally by :meth:`append_tuple`/:meth:`tombstone`,
        so streaming appends stay O(row) on both representations.  The
        mirror never goes stale: the big ints remain the source of truth
        and every mirror mutation happens inside the same call that mutates
        them.

        The backing is chosen per :func:`~repro.relational.catalog_file.
        resolve_backing`: RAM arrays below the ``REPRO_MMAP_THRESHOLD``
        tuple count, a self-deleting temporary mirror file above it (or as
        forced by ``REPRO_MMAP=on|off``).  A failed file backing degrades to
        RAM with a warning.
        """
        if self._packed_mirror is None:
            from repro.relational.packed_mirror import PackedMirror
            from repro.relational.catalog_file import resolve_backing

            if resolve_backing(self.tuple_count) == "mmap":
                fd, path = tempfile.mkstemp(prefix="repro-mirror-", suffix=".rpmc")
                os.close(fd)
                try:
                    self._packed_mirror = PackedMirror(
                        self, backing="mmap", path=path, delete_on_close=True
                    )
                    self._mirror_path = os.path.abspath(path)
                    return self._packed_mirror
                except Exception as error:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                    warnings.warn(
                        f"mmap mirror backing failed ({error}); using RAM",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            self._packed_mirror = PackedMirror(self)
        return self._packed_mirror

    def save_mirror(self, path: str):
        """Write (and keep using) a durable mirror file at ``path``.

        The catalog's matrices and tuple payloads are packed into a sealed
        :class:`~repro.relational.catalog_file.MirrorFile`, and the written
        mirror *becomes* the catalog's packed mirror, so subsequent appends
        and tombstones maintain the file incrementally.  Returns the mirror.
        """
        from repro.relational.packed_mirror import PackedMirror

        mirror = PackedMirror(self, backing="mmap", path=path)
        mirror.file.seal()
        self._packed_mirror = mirror
        self._mirror_path = os.path.abspath(path)
        return mirror

    def mirror_meta(self) -> dict:
        """The relation metadata stored in a mirror file's meta section."""
        return {
            "relations": [
                [name, list(attributes), label_prefix]
                for name, attributes, label_prefix in self._relation_meta
            ]
        }

    def payload_entry(self, gid: int) -> list:
        """Tuple ``gid`` as a JSON-ready mirror-file payload entry."""
        t = self._tuples[gid]
        return [
            t.relation_name,
            t.label,
            [None if is_null(v) else v for v in t.values],
            t.importance,
            t.probability,
        ]

    def stamp_mirror_generation(self, generation) -> None:
        """Record the owning database's generation in a writable mirror file.

        A no-op for RAM mirrors and read-only attachments.  The database
        calls this after every catalog-maintained mutation, so a mirror file
        under streaming ingest is always stamped at a database-consistent
        point and :func:`~repro.relational.catalog_file.load_database` can
        verify it.
        """
        mirror = self._packed_mirror
        if mirror is not None and mirror.file is not None and not mirror.file.readonly:
            mirror.file.stamp_generation(tuple(generation))

    def mirror_snapshot_ref(self) -> Optional[dict]:
        """A by-reference snapshot of the tuple entries, if one is possible.

        Non-``None`` only when the catalog has a *durable* file-backed
        mirror (ephemeral auto-selected temp files self-delete and must not
        be referenced).  The ref pins the payload prefix length and the dead
        mask at this moment; since the payload is append-only, the ref stays
        valid under later ingest.
        """
        mirror = self._packed_mirror
        if mirror is None or mirror.file is None or mirror.file.ephemeral:
            return None
        handle = mirror.file
        if not handle.readonly:
            handle.flush()
        return {
            "path": os.path.abspath(handle.path),
            "payload_offset": handle.payload_off,
            "payload_length": handle.payload_used,
            "count": self.tuple_count,
            "dead_mask": format(self._dead_mask, "x"),
        }

    def __getstate__(self):
        # The mirror is a derived cache of NumPy arrays: dropping it keeps
        # catalogs picklable without NumPy on the receiving side.  A RAM
        # mirror rebuilds lazily; a durable file-backed mirror ships its
        # path instead, so the receiver reattaches in O(1) rather than
        # repacking the matrices from big ints.
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["_packed_mirror"] = None
        mirror = self._packed_mirror
        durable = (
            mirror is not None
            and mirror.file is not None
            and not mirror.file.ephemeral
        )
        state["_mirror_path"] = mirror.path if durable else None
        if not isinstance(self._consistent, list):
            # Attached catalog: the consistency matrix lives in the file —
            # ship the reference, not a big-int copy of the bytes.
            state["_consistent"] = None
        return state

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        if self._consistent is None:
            self._reattach_mirror(required=True)
        elif self._mirror_path:
            self._reattach_mirror(required=False)

    def _reattach_mirror(self, required: bool) -> None:
        """Reopen ``_mirror_path`` read-only and attach to it.

        ``required`` is set when the pickled state shipped no consistency
        big ints (attached catalogs): failure to reattach is then an error.
        Otherwise the path is best-effort — on any failure the catalog
        falls back to the lazy RAM rebuild.
        """
        try:
            from repro.relational.packed_mirror import PackedMirror
            from repro.relational.catalog_file import MirrorFile, MirrorFileError

            path = self._mirror_path
            if not path:
                raise MirrorFileError("catalog state carries no mirror path")
            handle = MirrorFile.open(path, writable=False)
            if handle.n != len(self._tuples):
                handle.close()
                raise MirrorFileError(
                    f"{path}: mirror holds {handle.n} rows, "
                    f"catalog has {len(self._tuples)}"
                )
            self._packed_mirror = PackedMirror.attached(handle)
            if self._consistent is None:
                self._consistent = _MirrorRows(self._packed_mirror)
        except Exception:
            if required:
                raise
            self._packed_mirror = None
            self._mirror_path = None

    @classmethod
    def _attach(cls, mirror_file, tuples: List[Tuple], dead_mask: int) -> "Catalog":
        """Build a catalog served directly by a mapped mirror file.

        The relation-level masks are small and unpacked to big ints; the
        O(n²)-bit consistency matrix is *not* — it stays in the file behind
        :class:`_MirrorRows` and the attached :class:`PackedMirror
        <repro.relational.packed_mirror.PackedMirror>`, paging in on demand.
        ``tuples`` lists every issued gid in order (dead incarnations
        included); ``dead_mask`` is the tombstone set.
        """
        from repro.relational.packed_mirror import PackedMirror
        from repro.relational.catalog_file import MirrorFileError

        if len(tuples) != mirror_file.n:
            raise MirrorFileError(
                f"{mirror_file.path}: mirror holds {mirror_file.n} rows, "
                f"caller supplied {len(tuples)} tuples"
            )
        self = object.__new__(cls)
        relations = mirror_file.meta.get("relations") or []
        self._relation_ids = {}
        self._relation_names = []
        self._relation_meta = []
        for rid, (name, attributes, label_prefix) in enumerate(relations):
            self._relation_ids[name] = rid
            self._relation_names.append(name)
            self._relation_meta.append((name, tuple(attributes), label_prefix))
        count = len(self._relation_names)
        self._relation_adjacency = [
            int.from_bytes(mirror_file.adjacency[rid].tobytes(), "little")
            for rid in range(count)
        ]
        self._relation_tuples = [
            int.from_bytes(mirror_file.relation_tuples[rid].tobytes(), "little")
            for rid in range(count)
        ]
        n = mirror_file.n
        self._tuples = list(tuples)
        self._tuple_ids = {}
        for gid, t in enumerate(self._tuples):
            self._tuple_ids[t] = gid  # later (live) incarnation wins
        self._tuple_relation = [int(mirror_file.tuple_relation[gid]) for gid in range(n)]
        self._all_tuples_mask = (1 << n) - 1
        self._dead_mask = dead_mask
        self._connected_cache = {1: True} if count else {}
        self._relation_sets = {}
        self._packed_mirror = PackedMirror.attached(mirror_file)
        self._consistent = _MirrorRows(self._packed_mirror)
        self._mirror_path = os.path.abspath(mirror_file.path)
        return self

    # ------------------------------------------------------------------ #
    # sizes and liveness
    # ------------------------------------------------------------------ #
    @property
    def relation_count(self) -> int:
        """Number of catalogued relations."""
        return len(self._relation_names)

    @property
    def tuple_count(self) -> int:
        """Number of ids ever issued (live and tombstoned alike)."""
        return len(self._tuples)

    @property
    def dead_mask(self) -> int:
        """Bitmask of the tombstoned tuple ids (the tombstone set)."""
        return self._dead_mask

    @property
    def live_mask(self) -> int:
        """Bitmask of the live (not tombstoned) tuple ids."""
        return self._all_tuples_mask & ~self._dead_mask

    @property
    def tombstone_count(self) -> int:
        """Number of tombstoned ids awaiting a compacting rebuild."""
        return bin(self._dead_mask).count("1")

    @property
    def live_tuple_count(self) -> int:
        """Number of live catalogued tuples."""
        return len(self._tuples) - self.tombstone_count

    def is_tombstoned(self, t: Tuple) -> bool:
        """Whether ``t`` maps to a dead id (uncatalogued tuples are not)."""
        gid = self._tuple_ids.get(t)
        return gid is not None and bool((self._dead_mask >> gid) & 1)

    # ------------------------------------------------------------------ #
    # id assignment
    # ------------------------------------------------------------------ #
    def relation_id(self, name: str) -> int:
        """The dense id of the relation named ``name``."""
        return self._relation_ids[name]

    def relation_name(self, rid: int) -> str:
        """The name of the relation with id ``rid``."""
        return self._relation_names[rid]

    def id_of(self, t: Tuple) -> Optional[int]:
        """The global id of ``t``, or ``None`` when ``t`` is not catalogued."""
        return self._tuple_ids.get(t)

    def tuple_at(self, gid: int) -> Tuple:
        """The tuple with global id ``gid``."""
        return self._tuples[gid]

    def entries(self):
        """Yield ``(gid, tuple, dead)`` in id-issuance order.

        This is the storage layer's view of the catalog: every id ever
        issued — tombstoned ones included — in the order they were issued.
        A snapshot serialized from this order restores with identical gids,
        which is what lets persisted result logs name their members by gid
        (the packed mirror is derived state and is rebuilt lazily instead
        of being serialized; see ``__getstate__``).
        """
        dead = self._dead_mask
        for gid, t in enumerate(self._tuples):
            yield gid, t, bool((dead >> gid) & 1)

    def describe(self, t: Tuple) -> Optional[TupleType[int, int, int]]:
        """Return ``(gid, relation_bit, adjacent_relations)`` for ``t``, or
        ``None`` when ``t`` is not catalogued (a tuple set refuses it)."""
        gid = self._tuple_ids.get(t)
        if gid is None:
            return None
        rid = self._tuple_relation[gid]
        return gid, 1 << rid, self._relation_adjacency[rid]

    # ------------------------------------------------------------------ #
    # bitmatrix access
    # ------------------------------------------------------------------ #
    def consistent_mask(self, gid: int) -> int:
        """Bitmask of the tuples join consistent with tuple ``gid`` (other relations only)."""
        return self._consistent[gid]

    def consistency_closure(self, id_mask: int) -> int:
        """The AND over the tuples ``t`` of ``id_mask`` of ``row(t) | bit(t)``:
        the tuples consistent with every member other than themselves (all
        bits for the empty mask)."""
        rows = self._consistent
        closure = -1
        while id_mask:
            low = id_mask & -id_mask
            closure &= rows[low.bit_length() - 1] | low
            id_mask ^= low
        return closure

    def pair_consistent(self, first: int, second: int) -> bool:
        """Join consistency of a catalogued tuple pair (by global ids)."""
        return bool((self._consistent[first] >> second) & 1)

    def relation_of_tuple(self, gid: int) -> int:
        """The relation id of tuple ``gid``."""
        return self._tuple_relation[gid]

    def relation_tuples_mask(self, rid: int) -> int:
        """Bitmask of the tuples belonging to relation ``rid``."""
        return self._relation_tuples[rid]

    def adjacency_mask(self, rid: int) -> int:
        """Bitmask of the relations whose schemas share an attribute with ``rid``."""
        return self._relation_adjacency[rid]

    def tuples_in_relations(self, relation_mask: int) -> int:
        """Bitmask of all tuples whose relation bit is set in ``relation_mask``."""
        mask = 0
        while relation_mask:
            low = relation_mask & -relation_mask
            mask |= self._relation_tuples[low.bit_length() - 1]
            relation_mask ^= low
        return mask

    def relation_mask_of(self, id_mask: int) -> int:
        """Bitmask of the relations represented in the tuple bitmask ``id_mask``."""
        relation_mask = 0
        while id_mask:
            low = id_mask & -id_mask
            relation_mask |= 1 << self._tuple_relation[low.bit_length() - 1]
            id_mask ^= low
        return relation_mask

    def relation_names_of(self, relation_mask: int) -> FrozenSet[str]:
        """The names of the relations in ``relation_mask`` (memoised, like
        :meth:`relations_connected`)."""
        names = self._relation_sets.get(relation_mask)
        if names is None:
            names = frozenset(
                self._relation_names[rid]
                for rid in range(relation_mask.bit_length())
                if (relation_mask >> rid) & 1
            )
            self._relation_sets[relation_mask] = names
        return names

    def tuples_of_mask(self, id_mask: int) -> List[Tuple]:
        """Materialise the tuples of a tuple bitmask, in global-id order."""
        members: List[Tuple] = []
        while id_mask:
            low = id_mask & -id_mask
            members.append(self._tuples[low.bit_length() - 1])
            id_mask ^= low
        return members

    def mask_of(self, tuples: Iterable[Tuple]) -> Optional[int]:
        """The tuple bitmask of an iterable of tuples, or ``None`` if any is unknown."""
        mask = 0
        ids = self._tuple_ids
        for t in tuples:
            gid = ids.get(t)
            if gid is None:
                return None
            mask |= 1 << gid
        return mask

    # ------------------------------------------------------------------ #
    # connectivity over the relation graph
    # ------------------------------------------------------------------ #
    def relation_component(self, start_rid: int, relation_mask: int) -> int:
        """Relations reachable from ``start_rid`` within ``relation_mask`` (as a bitmask).

        ``start_rid`` is always part of the component, whether or not its bit
        is set in ``relation_mask`` (mirrors
        :meth:`Database.connected_component`).
        """
        adjacency = self._relation_adjacency
        seen = 1 << start_rid
        allowed = relation_mask | seen
        frontier = seen
        while frontier:
            reached = 0
            remaining = frontier
            while remaining:
                low = remaining & -remaining
                reached |= adjacency[low.bit_length() - 1]
                remaining ^= low
            frontier = reached & allowed & ~seen
            seen |= frontier
        return seen

    def relations_connected(self, relation_mask: int) -> bool:
        """Connectivity of the relation sub-graph induced by ``relation_mask``.

        The empty mask and singletons are connected.  Results are memoised —
        the engine asks about the same handful of masks millions of times.
        """
        if relation_mask == 0 or relation_mask & (relation_mask - 1) == 0:
            return True
        cached = self._connected_cache.get(relation_mask)
        if cached is None:
            start = (relation_mask & -relation_mask).bit_length() - 1
            cached = self.relation_component(start, relation_mask) == relation_mask
            self._connected_cache[relation_mask] = cached
        return cached
