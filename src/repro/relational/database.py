"""Databases: ordered collections of relations and their connection graph.

A set of relations is *connected* when the graph whose vertices are the
relations, with an edge between two relations that share an attribute, is
connected (Section 2).  The :class:`Database` object materialises this graph
once and answers connectivity queries about arbitrary subsets of relations,
which is the operation the algorithms perform constantly.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set

from repro.relational.errors import DatabaseError
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.tuples import Tuple


class Database:
    """An ordered set of relations ``R = {R_1, ..., R_n}``.

    The order of relations matters: ``IncrementalFD`` is parameterised by an
    index ``i`` and the full-disjunction driver iterates the relations in
    order, running pass ``i`` over ``R_i, …, R_n`` only.
    """

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: List[Relation] = []
        self._by_name: Dict[str, Relation] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._catalog_cache = None
        self._catalog_key = None
        self.catalog_rebuilds = 0
        #: Bumped by every *non-monotone* mutation (a deletion or an in-place
        #: update) and never by appends — the epoch component of
        #: :attr:`generation` the serving layer's revalidation keys on.
        self.epoch = 0
        for relation in relations:
            self.add_relation(relation)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_relation(self, relation: Relation) -> Relation:
        """Add a relation to the database (names must be unique)."""
        if relation.name in self._by_name:
            raise DatabaseError(f"duplicate relation name {relation.name!r}")
        self._relations.append(relation)
        self._by_name[relation.name] = relation
        self._adjacency[relation.name] = set()
        for other in self._relations[:-1]:
            if relation.schema.connects_to(other.schema):
                self._adjacency[relation.name].add(other.name)
                self._adjacency[other.name].add(relation.name)
        return relation

    @classmethod
    def from_relations(cls, *relations: Relation) -> "Database":
        """Build a database from relations given as positional arguments."""
        return cls(relations)

    def add_tuple(
        self,
        relation_name: str,
        values: Iterable[object],
        label: Optional[str] = None,
        importance: float = 0.0,
        probability: float = 1.0,
    ) -> Tuple:
        """Append a tuple to a relation, maintaining the catalog in place.

        This is the streaming-ingest entry point: unlike adding through
        ``database.relation(name).add(...)`` — which leaves the cached
        :class:`~repro.relational.catalog.Catalog` stale and forces a full
        rebuild on the next :meth:`catalog` call — this extends the cached
        snapshot append-only via
        :meth:`~repro.relational.catalog.Catalog.append_tuple`, so ingesting
        N tuples costs N·O(s) bitmatrix extensions and exactly one initial
        catalog build (observable as ``catalog_rebuilds``).
        """
        relation = self.relation(relation_name)
        before = self._structure_key()
        t = relation.add(
            values, label=label, importance=importance, probability=probability
        )
        if self._catalog_cache is not None:
            if self._catalog_key == before:
                self._catalog_cache.append_tuple(t)
                self._catalog_key = self._structure_key()
                self._catalog_cache.stamp_mirror_generation(self.generation)
            # A stale snapshot (tuples added behind the database's back)
            # keeps its stale key and is rebuilt on the next catalog() call.
        return t

    def _structure_key(self):
        """The catalog staleness key: relation count + total mutation version.

        Relation versions are *monotone* (every add and remove bumps one),
        so unlike a tuple count the key can never be aliased by a
        count-neutral out-of-band mutation (a direct ``Relation.remove``
        followed by an ``add``): any change moves the sum forward.
        """
        return (
            len(self._relations),
            sum(relation.version for relation in self._relations),
        )

    def _catalog_is_current(self) -> bool:
        return (
            self._catalog_cache is not None
            and self._catalog_key == self._structure_key()
        )

    def remove_tuple(self, relation_name: str, label: str) -> Tuple:
        """Delete a tuple, maintaining the catalog as an append-only tombstone.

        The non-monotone counterpart of :meth:`add_tuple`: the tuple leaves
        its relation (scans never see it again), the cached
        :class:`~repro.relational.catalog.Catalog` marks its dense id dead in
        place (no rebuild, no id reshuffling — see
        :meth:`~repro.relational.catalog.Catalog.tombstone`), and
        :attr:`epoch` is bumped so the serving layer can distinguish this
        from a monotone append.  Dead ids are reclaimed only by
        :meth:`compact`.  Returns the removed tuple.
        """
        relation = self.relation(relation_name)
        was_current = self._catalog_is_current()
        t = relation.remove(label)
        self.epoch += 1
        if was_current:
            self._catalog_cache.tombstone(t)
            self._catalog_key = self._structure_key()
            self._catalog_cache.stamp_mirror_generation(self.generation)
        return t

    def resolve_update(
        self,
        relation_name: str,
        label: str,
        values: Iterable[object],
        importance: Optional[float] = None,
        probability: Optional[float] = None,
    ):
        """Validate an in-place update; decide whether it changes anything.

        The single source of truth for update semantics, shared by
        :meth:`update_tuple` and the streaming maintainer's batch
        validation: resolves the target (raising
        :class:`~repro.relational.errors.DatabaseError` /
        :class:`~repro.relational.errors.RelationError` on unknown names),
        checks the arity against the schema (raising
        :class:`~repro.relational.errors.SchemaError`), and defaults
        ``importance``/``probability`` to the old tuple's.  Returns ``None``
        for a no-op update, else ``(old tuple, values, importance,
        probability)``.
        """
        relation = self.relation(relation_name)
        old = relation.tuple_by_label(label)
        values = tuple(values)
        if len(values) != len(relation.schema):
            from repro.relational.errors import SchemaError

            raise SchemaError(
                f"update of {label!r} in {relation_name!r} has {len(values)} "
                f"values, schema has {len(relation.schema)} attributes"
            )
        importance = old.importance if importance is None else importance
        probability = old.probability if probability is None else probability
        if (
            values == old.values
            and importance == old.importance
            and probability == old.probability
        ):
            return None
        return old, values, importance, probability

    def update_tuple(
        self,
        relation_name: str,
        label: str,
        values: Iterable[object],
        importance: Optional[float] = None,
        probability: Optional[float] = None,
    ) -> Tuple:
        """Replace a tuple's values in place (tombstone + append, one epoch).

        The old incarnation is tombstoned and a fresh tuple with the *same
        label* is appended — downstream, an update is exactly a deletion plus
        an arrival that happen in one epoch bump.  ``importance`` and
        ``probability`` default to the old tuple's values.  An update that
        changes nothing is a no-op (no epoch bump, the old tuple is
        returned).  Returns the live tuple.
        """
        resolved = self.resolve_update(
            relation_name, label, values,
            importance=importance, probability=probability,
        )
        if resolved is None:
            return self.relation(relation_name).tuple_by_label(label)
        old, values, importance, probability = resolved
        relation = self.relation(relation_name)
        was_current = self._catalog_is_current()
        relation.remove(label)
        t = relation.add(
            values, label=label, importance=importance, probability=probability
        )
        self.epoch += 1
        if was_current:
            self._catalog_cache.tombstone(old)
            self._catalog_cache.append_tuple(t)
            self._catalog_key = self._structure_key()
            self._catalog_cache.stamp_mirror_generation(self.generation)
        return t

    def compact(self):
        """Rebuild the catalog from the live tuples, reclaiming dead ids.

        The off-hot-path counterpart of the tombstone scheme: the dense id
        space is rebuilt without the tombstoned tuples (one
        ``catalog_rebuilds`` bump, so every generation-keyed cache entry
        ages out).  Tuple sets interned before stay of the old catalog: a
        query running across the compaction raises ``DatabaseError`` on its
        next pass ("restart the query"), and the containers refuse to mix
        the old sets with new ones.  Returns the fresh catalog.
        """
        self._catalog_cache = None
        self._catalog_key = None
        return self.catalog()

    # ------------------------------------------------------------------ #
    # durable state (storage-layer snapshot/restore hooks)
    # ------------------------------------------------------------------ #
    def save_mirror(self, path: str) -> str:
        """Persist the catalog as a sealed, generation-stamped mirror file.

        The written file (see :mod:`repro.relational.catalog_file`) carries
        the packed bitmatrices, the relation metadata, and every tuple
        payload, so :func:`~repro.relational.catalog_file.load_database`
        reconstructs an equivalent database around it — and the catalog
        keeps using the file as its packed mirror, maintaining it in place
        under further ingest.  Returns ``path``.
        """
        catalog = self.catalog()
        mirror = catalog.save_mirror(path)
        mirror.file.stamp_generation(tuple(self.generation))
        mirror.file.flush()
        return path

    def snapshot_state(self) -> dict:
        """Serialize the database (catalog included) as a JSON-ready dict.

        Tuples are listed in gid-issuance order with their dead flags, so
        :meth:`restore_state` reproduces the catalog's dense id space
        exactly — including tombstones — and anything that named tuples by
        gid (persisted result logs) stays valid.  Null cells are encoded as
        JSON ``null``.  The packed mirror is derived state and is rebuilt
        lazily on the restored side rather than serialized — except when it
        is a durable mirror *file*: then the tuple entries are recorded **by
        reference** (``tuples_ref``: path + payload prefix + dead mask)
        instead of being re-serialized, so snapshot latency stays O(1) in
        the database size.
        """
        catalog = self.catalog()
        state = {
            "relations": [
                {
                    "name": relation.name,
                    "attributes": list(relation.schema.attributes),
                    "label_prefix": relation._label_prefix,
                }
                for relation in self._relations
            ],
            "epoch": self.epoch,
            "catalog_rebuilds": self.catalog_rebuilds,
            "generation": list(self.generation),
        }
        ref = catalog.mirror_snapshot_ref()
        if ref is not None:
            state["tuples_ref"] = ref
        else:
            state["tuples"] = [
                [
                    t.relation_name,
                    t.label,
                    [None if is_null(v) else v for v in t.values],
                    t.importance,
                    t.probability,
                    dead,
                ]
                for _, t, dead in catalog.entries()
            ]
        return state

    @classmethod
    def restore_state(cls, state: dict) -> "Database":
        """Rebuild a database from :meth:`snapshot_state` output.

        Tuples are re-added in gid order through the append-only catalog
        path, so every tuple lands on the gid it held when the snapshot was
        taken.  Label reuse (an update tombstones the old incarnation and
        appends a fresh tuple under the same label) is replayed the same
        way: when a later entry reuses a still-live label, the earlier
        incarnation is tombstoned first.  The stored ``epoch`` and
        ``catalog_rebuilds`` then overwrite the counters the replay itself
        moved, and the resulting generation token must equal the stored one
        — a mismatch means the snapshot does not describe this code's
        semantics and recovery must fail rather than serve wrong streams.
        """
        database = cls()
        for spec in state["relations"]:
            database.add_relation(
                Relation(
                    spec["name"],
                    spec["attributes"],
                    label_prefix=spec["label_prefix"],
                )
            )
        # Build the (empty) catalog now so every add below extends it in
        # place and gid assignment tracks insertion order exactly.
        catalog = database.catalog()
        live_labels: Dict[str, set] = {spec["name"]: set() for spec in state["relations"]}
        entries = state.get("tuples")
        if entries is None:
            from repro.relational.catalog_file import read_snapshot_entries

            entries = read_snapshot_entries(state["tuples_ref"])
        for relation_name, label, values, importance, probability, _ in entries:
            if label in live_labels[relation_name]:
                database.remove_tuple(relation_name, label)
            database.add_tuple(
                relation_name,
                tuple(NULL if v is None else v for v in values),
                label=label,
                importance=importance,
                probability=probability,
            )
            live_labels[relation_name].add(label)
        # Tombstone sweep: entries dead in the snapshot whose gid is still
        # live (their label was never reused by a later entry).
        dead_mask = 0
        for gid, entry in enumerate(entries):
            relation_name, label, _, _, _, dead = entry
            if not dead:
                continue
            dead_mask |= 1 << gid
            if not (catalog.dead_mask >> gid) & 1:
                database.remove_tuple(relation_name, label)
        database.epoch = state["epoch"]
        database.catalog_rebuilds = state["catalog_rebuilds"]
        expected = tuple(state["generation"])
        if tuple(database.generation) != expected:
            raise DatabaseError(
                f"restored generation {database.generation} does not match "
                f"the snapshot's {expected}"
            )
        if catalog.dead_mask != dead_mask or catalog.tuple_count != len(entries):
            raise DatabaseError(
                "restored catalog id space diverged from the snapshot "
                f"({catalog.tuple_count} ids, dead mask {catalog.dead_mask:#x})"
            )
        return database

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def relations(self) -> Sequence[Relation]:
        """The relations in database order."""
        return tuple(self._relations)

    @property
    def relation_names(self) -> List[str]:
        """The relation names in database order."""
        return [relation.name for relation in self._relations]

    def relation(self, name: str) -> Relation:
        """Return the relation with the given name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise DatabaseError(f"no relation named {name!r}") from None

    def relation_at(self, index: int) -> Relation:
        """Return the relation at a zero-based index."""
        try:
            return self._relations[index]
        except IndexError:
            raise DatabaseError(
                f"relation index {index} out of range (database has {len(self._relations)})"
            ) from None

    def index_of(self, name: str) -> int:
        """Return the zero-based position of the relation named ``name``."""
        for idx, relation in enumerate(self._relations):
            if relation.name == name:
                return idx
        raise DatabaseError(f"no relation named {name!r}")

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return f"Database({', '.join(self.relation_names)})"

    # ------------------------------------------------------------------ #
    # tuples
    # ------------------------------------------------------------------ #
    def tuples(self) -> Iterator[Tuple]:
        """Iterate over ``Tuples(R)``: every tuple of every relation, in order."""
        for relation in self._relations:
            yield from relation

    def tuple_count(self) -> int:
        """Return the total number of tuples in the database."""
        return sum(len(relation) for relation in self._relations)

    def total_size(self) -> int:
        """The paper's ``s``: total size of all relations (tuples + attribute cells)."""
        return sum(relation.total_size() for relation in self._relations)

    def tuple_by_label(self, label: str) -> Tuple:
        """Look up a tuple by its label across all relations."""
        for relation in self._relations:
            for t in relation:
                if t.label == label:
                    return t
        raise DatabaseError(f"no tuple labelled {label!r} in the database")

    @property
    def generation(self):
        """The structural version of this database, as a comparable token.

        ``(catalog_rebuilds, epoch, relation count, live tuple count)`` —
        any structural change moves at least one component: appends through
        :meth:`add_tuple` move the live tuple count (the catalog is
        maintained in place, no rebuild); deletions and in-place updates
        through :meth:`remove_tuple` / :meth:`update_tuple` move ``epoch``
        (and never anything but the counts — that is what lets the serving
        layer *revalidate* a cached prefix across an epoch bump instead of
        discarding it); adding a relation, compacting, or mutating behind
        the database's back forces a snapshot rebuild on the next
        :meth:`catalog` call and bumps ``catalog_rebuilds``.  Compare tokens
        taken *after* a :meth:`catalog` call so a pending lazy build cannot
        move the counter in between.
        """
        return (
            self.catalog_rebuilds,
            self.epoch,
            len(self._relations),
            self.tuple_count(),
        )

    # ------------------------------------------------------------------ #
    # interned catalog
    # ------------------------------------------------------------------ #
    def catalog(self):
        """The interned :class:`~repro.relational.catalog.Catalog` of this database.

        The catalog assigns dense relation and tuple ids and precomputes the
        join-consistency and schema-adjacency bitmatrices the bitset
        :class:`~repro.core.tupleset.TupleSet` representation runs on.  It is
        a snapshot: the cached instance is rebuilt when relations have been
        added, or when tuples have been added behind the database's back
        (tuples ingested through :meth:`add_tuple` extend the snapshot in
        place instead).  Every full build increments ``catalog_rebuilds``.
        """
        from repro.relational.catalog import Catalog

        key = self._structure_key()
        if self._catalog_cache is None or self._catalog_key != key:
            self._catalog_cache = Catalog(self)
            self._catalog_key = key
            self.catalog_rebuilds += 1
        return self._catalog_cache

    def current_catalog(self):
        """The cached catalog when it describes the database as it is, else ``None``.

        Unlike :meth:`catalog` this never builds one, so asking has no side
        effect on ``catalog_rebuilds``.
        """
        return self._catalog_cache if self._catalog_is_current() else None

    # ------------------------------------------------------------------ #
    # connection graph
    # ------------------------------------------------------------------ #
    @property
    def adjacency(self) -> Dict[str, Set[str]]:
        """The relation-connection graph as an adjacency mapping (copies)."""
        return {name: set(neighbours) for name, neighbours in self._adjacency.items()}

    def neighbours(self, name: str) -> Set[str]:
        """Relations connected to (sharing an attribute with) ``name``."""
        if name not in self._adjacency:
            raise DatabaseError(f"no relation named {name!r}")
        return set(self._adjacency[name])

    def are_connected(self, first: str, second: str) -> bool:
        """Return ``True`` when the two named relations share an attribute."""
        return second in self._adjacency.get(first, ())

    def is_connected(self, names: Optional[Iterable[str]] = None) -> bool:
        """Return ``True`` when the given relations form a connected graph.

        With no argument, the whole database is tested; this is the
        connectivity condition the paper places on the input relations.
        An empty set is considered connected; a singleton is connected.
        """
        if names is None:
            selected = set(self._by_name)
        else:
            selected = set(names)
            unknown = selected - set(self._by_name)
            if unknown:
                raise DatabaseError(f"unknown relations: {sorted(unknown)}")
        if len(selected) <= 1:
            return True
        start = next(iter(selected))
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for neighbour in self._adjacency[current]:
                if neighbour in selected and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return seen == selected

    def connected_component(self, start: str, names: Iterable[str]) -> FrozenSet[str]:
        """Return the connected component of ``start`` within the sub-graph induced by ``names``.

        This is the operation of footnote 3: after discarding join-inconsistent
        tuples, keep only those whose relations lie in the connected component
        of ``t_b``'s relation.
        """
        selected = set(names)
        selected.add(start)
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for neighbour in self._adjacency.get(current, ()):
                if neighbour in selected and neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return frozenset(seen)

    def schema_edges(self) -> List[tuple]:
        """Return the edges of the connection graph as sorted name pairs."""
        edges = []
        for idx, first in enumerate(self._relations):
            for second in self._relations[idx + 1:]:
                if first.schema.connects_to(second.schema):
                    edges.append((first.name, second.name))
        return edges

    def validate_connected(self) -> None:
        """Raise :class:`DatabaseError` unless the whole database is connected.

        The paper defines the full disjunction for a connected set of
        relations; the algorithms still work on disconnected databases (each
        component is handled independently) but callers may want to enforce
        the paper's precondition explicitly.
        """
        if not self.is_connected():
            raise DatabaseError(
                "the database is not connected: the full disjunction is defined "
                "for a connected set of relations"
            )
