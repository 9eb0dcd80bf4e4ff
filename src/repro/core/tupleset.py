"""Tuple sets and the JCC (join consistent and connected) predicate.

A *tuple set* ``T ⊆ Tuples(R)`` is the unit the paper's algorithms work with.
``T`` is *connected* when (i) no two tuples of ``T`` belong to the same
relation and (ii) the relations of the tuples of ``T`` form a connected graph
(two relations are adjacent when their schemas share an attribute).  ``T`` is
*join consistent* when every two tuples agree, with a non-null value, on every
attribute their schemas share.  ``JCC(T)`` holds when both do (Section 2).

:class:`TupleSet` is immutable and answers the operations the algorithms
perform in their inner loops:

* ``is_jcc`` — the JCC predicate for the set itself;
* ``union_is_jcc(other)`` — the line-14 test ``JCC(S ∪ T')``;
* ``can_absorb(t)`` — the extension test ``JCC(T ∪ {t})``;
* ``maximal_jcc_subset_with(t_b)`` — footnote 3: the unique maximal subset of
  ``T ∪ {t_b}`` that contains ``t_b`` and is join consistent and connected.

Two representations back these operations:

**Interned (bitset) representation.**  When the set is built with a
:class:`~repro.relational.catalog.Catalog` (``TupleSet(tuples, catalog=...)``)
and every member is catalogued, the set additionally stores three integers: a
bitmask of member tuple ids, a bitmask of member relation ids, and the union
of the members' schema-adjacency masks.  The inner-loop predicates then
reduce to bitwise AND/OR against the catalog's precomputed join-consistency
and adjacency bitmatrices — no dict merges, no per-attribute loops:

* ``issubset`` is one ``AND``/``NOT`` over tuple-id masks;
* ``union_is_jcc`` ANDs each new tuple's precomputed consistency mask against
  the other operand's id mask, then decides connectivity from the adjacency
  masks;
* ``can_absorb`` is the same test for a single tuple;
* ``maximal_jcc_subset_with`` intersects the id mask with the new tuple's
  consistency mask and runs the footnote-3 component search on relation-id
  bitmasks.

Derived sets (``union``, ``with_tuple``, ``difference``, …) propagate the
catalog, so interning one generation of tuple sets interns everything the
engine grows from it.

**Uninterned (reference) representation.**  Without a catalog — or when a
member tuple is unknown to it — the original dictionary-based implementation
is used: a merged ``attribute -> value`` map plus breadth-first search over
member schemas.  This path is retained deliberately: it is the executable
specification the randomized equivalence tests
(``tests/core/test_tupleset_equivalence.py``) check the bitset path against,
and it keeps :class:`TupleSet` usable for ad-hoc tuples that belong to no
database.  Both representations produce identical answers on every operation
(for the documented JCC preconditions of ``union_is_jcc``/``can_absorb``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple as TupleType

from repro.relational.nulls import is_null
from repro.relational.tuples import Tuple


class TupleSet:
    """An immutable set of tuples, at most one per relation in the JCC case.

    The constructor accepts any iterable of tuples; consistency and
    connectivity are *computed*, not assumed, so the class can also represent
    candidate sets that fail the JCC test.

    Parameters
    ----------
    tuples:
        The member tuples.
    catalog:
        Optional :class:`~repro.relational.catalog.Catalog`.  When given and
        every member is catalogued, the set is *interned*: the inner-loop
        predicates run on integer bitmasks against the catalog's precomputed
        matrices (see the module docstring).  Sets derived from an interned
        set inherit its catalog.
    """

    __slots__ = (
        "_tuples",
        "_by_relation",
        "_relation_conflict",
        "_attribute_values",
        "_join_consistent",
        "_connected",
        "_hash",
        "_catalog",
        "_id_mask",
        "_relation_mask",
        "_adjacent_relations",
    )

    def __init__(self, tuples: Iterable[Tuple], catalog=None):
        frozen = frozenset(tuples)
        self._tuples: FrozenSet[Tuple] = frozen
        self._hash = hash(frozen)

        by_relation: Dict[str, Tuple] = {}
        relation_conflict = False
        for t in frozen:
            if t.relation_name in by_relation:
                relation_conflict = True
            by_relation[t.relation_name] = t
        self._by_relation = by_relation
        self._relation_conflict = relation_conflict

        # Lazily computed caches (see _attr_map / is_join_consistent).
        self._attribute_values: Optional[Dict[str, object]] = None
        self._join_consistent: Optional[bool] = None
        self._connected: Optional[bool] = None

        # Interning against the catalog's dense ids.
        self._catalog = None
        self._id_mask: Optional[int] = None
        self._relation_mask: Optional[int] = None
        self._adjacent_relations: Optional[int] = None
        if catalog is not None:
            id_mask = 0
            relation_mask = 0
            adjacent = 0
            for t in frozen:
                described = catalog.describe(t)
                if described is None:
                    break
                gid, relation_bit, adjacency = described
                id_mask |= 1 << gid
                relation_mask |= relation_bit
                adjacent |= adjacency
            else:
                self._catalog = catalog
                self._id_mask = id_mask
                self._relation_mask = relation_mask
                self._adjacent_relations = adjacent

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, *tuples: Tuple, catalog=None) -> "TupleSet":
        """Build a tuple set from tuples given as positional arguments."""
        return cls(tuples, catalog=catalog)

    @classmethod
    def singleton(cls, t: Tuple, catalog=None) -> "TupleSet":
        """Build the singleton tuple set ``{t}``."""
        return cls((t,), catalog=catalog)

    @classmethod
    def singleton_at(cls, gid: int, catalog) -> "TupleSet":
        """The singleton of ``catalog``'s tuple ``gid``, interned at ``gid``
        even when that incarnation is tombstoned and the catalog's lookup
        names a live namesake."""
        tuple_set = cls((catalog.tuple_at(gid),), catalog=catalog)
        tuple_set._id_mask = 1 << gid
        return tuple_set

    @classmethod
    def empty(cls, catalog=None) -> "TupleSet":
        """The empty tuple set (connected and join consistent by convention)."""
        return cls((), catalog=catalog)

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #
    @property
    def catalog(self):
        """The catalog the set is interned in, or ``None``."""
        return self._catalog

    @property
    def is_interned(self) -> bool:
        """``True`` when the set carries bitset masks against a catalog."""
        return self._id_mask is not None

    @property
    def id_mask(self) -> Optional[int]:
        """The member-tuple bitmask (``None`` when the set is not interned)."""
        return self._id_mask

    @property
    def relation_mask(self) -> Optional[int]:
        """The member-relation bitmask (``None`` when the set is not interned)."""
        return self._relation_mask

    @property
    def adjacent_relations(self) -> Optional[int]:
        """Bitmask of the relations adjacent to a member relation (``None`` when not interned)."""
        return self._adjacent_relations

    def contains_tombstoned(self, catalog) -> bool:
        """Whether some member tuple is tombstoned in ``catalog``.

        The serving layer's liveness test: on a set interned in ``catalog``
        this is a single ``AND`` of the member bitmask against the catalog's
        tombstone set; otherwise each member is looked up individually.
        """
        if self._id_mask is not None and self._catalog is catalog:
            return bool(self._id_mask & catalog.dead_mask)
        return any(catalog.is_tombstoned(t) for t in self._tuples)

    def attach_catalog(self, catalog) -> "TupleSet":
        """Return this set interned in ``catalog`` (self when already there).

        Falls back to returning ``self`` unchanged when some member tuple is
        unknown to the catalog.
        """
        if catalog is None or self._catalog is catalog:
            return self
        interned = TupleSet(self._tuples, catalog=catalog)
        return interned if interned.is_interned else self

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def tuples(self) -> FrozenSet[Tuple]:
        """The member tuples."""
        return self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: object) -> bool:
        return t in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        if (
            self._id_mask is not None
            and other._id_mask is not None
            and self._catalog is other._catalog
        ):
            return self._id_mask == other._id_mask
        return self._tuples == other._tuples

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "TupleSet") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "TupleSet") -> bool:
        return self.issubset(other) and self._tuples != other._tuples

    def issubset(self, other: "TupleSet") -> bool:
        """Return ``True`` when every tuple of this set belongs to ``other``."""
        if (
            self._id_mask is not None
            and other._id_mask is not None
            and self._catalog is other._catalog
        ):
            return not (self._id_mask & ~other._id_mask)
        return self._tuples <= other._tuples

    def issuperset(self, other: "TupleSet") -> bool:
        """Return ``True`` when this set contains every tuple of ``other``."""
        return other.issubset(self)

    def holds_mask(self, id_mask: int, catalog) -> bool:
        """Return ``True`` when this set contains every tuple of the tuple
        bitmask ``id_mask`` of ``catalog`` (``issuperset`` without a set to
        compare)."""
        if self._catalog is catalog:
            return not id_mask & ~self._id_mask
        return self._tuples.issuperset(catalog.tuples_of_mask(id_mask))

    def __repr__(self) -> str:
        labels = ", ".join(sorted(t.label for t in self._tuples))
        return "{" + labels + "}"

    def labels(self) -> FrozenSet[str]:
        """The labels of the member tuples, as a frozenset (handy in tests)."""
        return frozenset(t.label for t in self._tuples)

    def sort_key(self) -> TupleType:
        """A deterministic ordering key (by sorted member labels)."""
        return tuple(sorted((t.relation_name, t.label) for t in self._tuples))

    def total_size(self) -> int:
        """Size measure in the spirit of the paper's ``f``: attribute cells of all members."""
        return sum(len(t.schema) for t in self._tuples)

    # ------------------------------------------------------------------ #
    # relations and attributes
    # ------------------------------------------------------------------ #
    @property
    def relations(self) -> FrozenSet[str]:
        """The names of the relations represented in the set."""
        return frozenset(self._by_relation)

    def tuple_from(self, relation_name: str) -> Optional[Tuple]:
        """The member tuple of ``relation_name`` or ``None``.

        When the set (illegally) holds several tuples of the same relation an
        arbitrary one is returned; JCC sets hold at most one.
        """
        return self._by_relation.get(relation_name)

    def contains_tuple_from(self, relation_name: str) -> bool:
        """Return ``True`` when some member tuple belongs to ``relation_name``."""
        return relation_name in self._by_relation

    def _attr_map(self) -> Dict[str, object]:
        """The merged ``attribute -> value`` map (computed on first use).

        The computation simultaneously decides join consistency, which is
        recorded when no earlier (bitset) computation already did.
        """
        values = self._attribute_values
        if values is None:
            values = {}
            join_consistent = True
            for t in self._tuples:
                for attribute, value in t.items():
                    if attribute in values:
                        existing = values[attribute]
                        if is_null(existing) or is_null(value) or existing != value:
                            join_consistent = False
                        if is_null(existing) and not is_null(value):
                            values[attribute] = value
                    else:
                        values[attribute] = value
            self._attribute_values = values
            if self._join_consistent is None:
                self._join_consistent = join_consistent and not self._relation_conflict
        return values

    @property
    def attributes(self) -> FrozenSet[str]:
        """All attributes appearing in the schemas of member tuples."""
        return frozenset(self._attr_map())

    def attribute_value(self, attribute: str) -> object:
        """The (merged) value of ``attribute`` in the set.

        Only meaningful for join-consistent sets, where all members sharing
        the attribute agree on one non-null value.
        """
        return self._attr_map()[attribute]

    # ------------------------------------------------------------------ #
    # the JCC predicate
    # ------------------------------------------------------------------ #
    @property
    def is_join_consistent(self) -> bool:
        """Join consistency of the set (pairwise agreement on shared attributes).

        A set with two distinct tuples of the same relation is reported as
        inconsistent, because such a set can never be part of a full
        disjunction and the cheap single-value cache would be unsound for it.
        """
        if self._join_consistent is None:
            if self._relation_conflict:
                self._join_consistent = False
            elif self._id_mask is not None:
                # Every member must be consistent with every other member:
                # one AND per member against its precomputed consistency mask.
                catalog = self._catalog
                mask = self._id_mask
                consistent = True
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    gid = low.bit_length() - 1
                    if mask & ~(catalog.consistent_mask(gid) | low):
                        consistent = False
                        break
                    remaining ^= low
                self._join_consistent = consistent
            else:
                self._attr_map()  # records join consistency as a side effect
        return self._join_consistent

    @property
    def is_connected(self) -> bool:
        """Connectivity of the set, per the paper's definition.

        The empty set and singletons are connected.  A set with two tuples of
        the same relation is not connected (condition (i) of the definition).
        """
        if self._connected is None:
            if self._relation_conflict:
                self._connected = False
            elif len(self._tuples) <= 1:
                self._connected = True
            elif self._relation_mask is not None:
                self._connected = self._catalog.relations_connected(self._relation_mask)
            else:
                self._connected = self._compute_connected()
        return self._connected

    def _compute_connected(self) -> bool:
        schemas = {name: t.schema for name, t in self._by_relation.items()}
        names = list(schemas)
        start = names[0]
        seen = {start}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for other in names:
                if other not in seen and schemas[current].connects_to(schemas[other]):
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(names)

    @property
    def is_jcc(self) -> bool:
        """``JCC(T)``: join consistent and connected."""
        return self.is_join_consistent and self.is_connected

    # ------------------------------------------------------------------ #
    # derived sets
    # ------------------------------------------------------------------ #
    def with_tuple(self, t: Tuple) -> "TupleSet":
        """Return ``T ∪ {t}`` as a new tuple set."""
        if t in self._tuples:
            return self
        return TupleSet(self._tuples | {t}, catalog=self._catalog)

    def union(self, other: "TupleSet") -> "TupleSet":
        """Return ``T ∪ S`` as a new tuple set.

        The union is interned in ``self``'s catalog when possible, otherwise
        in ``other``'s: after a catalog rebuild the two operands may carry
        different snapshots, and only the newer one can describe every
        member.  Only when *neither* catalog covers the union does the
        result fall back to the uninterned representation.  When ``other``
        is a subset in the same catalog, the union is ``self``.
        """
        if (
            self._id_mask is not None
            and other._id_mask is not None
            and self._catalog is other._catalog
            and not other._id_mask & ~self._id_mask
        ):
            return self
        catalog = self._catalog if self._catalog is not None else other._catalog
        merged = TupleSet(self._tuples | other._tuples, catalog=catalog)
        if (
            not merged.is_interned
            and other._catalog is not None
            and other._catalog is not catalog
        ):
            retry = TupleSet(merged._tuples, catalog=other._catalog)
            if retry.is_interned:
                return retry
        return merged

    def difference(self, other: "TupleSet") -> "TupleSet":
        """Return ``T \\ S`` as a new tuple set."""
        return TupleSet(self._tuples - other._tuples, catalog=self._catalog)

    def restrict_to_relations(self, relation_names: Iterable[str]) -> "TupleSet":
        """Return the subset of member tuples belonging to the given relations."""
        wanted = set(relation_names)
        return TupleSet(
            (t for t in self._tuples if t.relation_name in wanted),
            catalog=self._catalog,
        )

    # ------------------------------------------------------------------ #
    # inner-loop tests
    # ------------------------------------------------------------------ #
    def can_absorb(self, t: Tuple) -> bool:
        """Return ``True`` when ``JCC(T ∪ {t})`` holds, assuming ``JCC(T)``.

        This is the test of the maximal-extension loop (Lines 2–6 of
        ``GetNextResult``).  For the empty set it reduces to ``True`` (a
        singleton is always JCC).
        """
        if t in self._tuples:
            return True
        if not self._tuples:
            return True
        if self._id_mask is not None:
            described = self._catalog.describe(t)
            if described is not None:
                gid, _, adjacency = described
                # Join consistency: t must be consistent with every member
                # (the consistency matrix also rejects a second tuple of t's
                # relation); connectivity: t's relation must be adjacent to a
                # member relation.
                if self._id_mask & ~self._catalog.consistent_mask(gid):
                    return False
                return bool(adjacency & self._relation_mask)
        if t.relation_name in self._by_relation:
            return False
        # Join consistency of the new tuple against the merged attribute map.
        attribute_values = self._attr_map()
        connected = False
        for attribute, value in t.items():
            if attribute in attribute_values:
                connected = True
                existing = attribute_values[attribute]
                if is_null(existing) or is_null(value) or existing != value:
                    return False
        # Connectivity: t's relation must share an attribute with some member
        # relation.  Sharing an attribute with the *merged* attribute map is
        # exactly that, because the map's keys are the union of member schemas.
        return connected

    def union_is_jcc(self, other: "TupleSet") -> bool:
        """Return ``True`` when ``JCC(T ∪ S)`` holds, assuming both are JCC.

        This is the test of Line 14 of ``GetNextResult``.  On interned sets
        the test is a handful of bit operations: every tuple of ``S \\ T``
        must be consistent with all of ``T`` (one AND against its precomputed
        consistency mask — a second tuple of an already-present relation fails
        here too), and the union is connected exactly when the operands share
        a member or some relation of ``S`` is schema-adjacent to one of ``T``.

        The uninterned fallback follows the complexity analysis of
        Theorem 4.8: compare the merged attribute maps of the two sets in a
        single pass; a disagreement involving a null needs the exact pairwise
        check because the null may be carried by a tuple that belongs to
        *both* sets (tuples never constrain themselves).
        """
        if not self._tuples:
            return other.is_jcc
        if not other._tuples:
            return self.is_jcc

        if (
            self._id_mask is not None
            and other._id_mask is not None
            and self._catalog is other._catalog
        ):
            return self.union_is_jcc_mask(
                other._id_mask, other._relation_mask, self._catalog
            )

        shares_member = False
        for relation_name, t in other._by_relation.items():
            current = self._by_relation.get(relation_name)
            if current is not None:
                if current != t:
                    return False  # two distinct tuples of the same relation
                shares_member = True

        # Fast path over the merged attribute maps.
        my_attributes = self._attr_map()
        needs_pairwise = False
        shared_attribute = False
        for attribute, value in other._attr_map().items():
            if attribute in my_attributes:
                shared_attribute = True
                existing = my_attributes[attribute]
                if is_null(existing) or is_null(value) or existing != value:
                    needs_pairwise = True
                    break
        if not needs_pairwise:
            if shared_attribute or shares_member:
                return True
            return False

        # Exact check: every cross pair of *distinct* tuples must agree with a
        # non-null value on every attribute their schemas share.
        cross_share = shares_member
        for mine in self._tuples:
            for theirs in other._tuples:
                if mine == theirs:
                    continue
                shared = mine.schema.shared_attributes(theirs.schema)
                if shared:
                    cross_share = True
                for attribute in shared:
                    left = mine[attribute]
                    right = theirs[attribute]
                    if is_null(left) or is_null(right) or left != right:
                        return False
        return cross_share

    def union_is_jcc_mask(self, id_mask: int, relation_mask: int, catalog) -> bool:
        """:meth:`union_is_jcc` for a JCC operand given as its tuple and
        relation bitmasks in ``catalog``.

        The bit test runs when this set is interned in ``catalog``; otherwise
        the operand is built and the general test decides.
        """
        if self._catalog is not catalog:
            return self.union_is_jcc(TupleSet(catalog.tuples_of_mask(id_mask), catalog=catalog))
        mine = self._id_mask
        if not mine:
            return True
        incoming = id_mask & ~mine
        while incoming:
            low = incoming & -incoming
            # "mine ⊆ row", tested without negating the catalog-wide row.
            if catalog.consistent_mask(low.bit_length() - 1) & mine != mine:
                return False
            incoming ^= low
        if mine & id_mask:
            return True
        return bool(self._adjacent_relations & relation_mask)

    def maximal_jcc_subset_with(self, t_b: Tuple) -> "TupleSet":
        """Footnote 3: the unique maximal JCC subset of ``T ∪ {t_b}`` containing ``t_b``.

        Obtained by (1) dropping every member tuple that is not join
        consistent with ``t_b`` (in particular any member of ``t_b``'s own
        relation), then (2) keeping only the tuples whose relations lie in the
        connected component of ``t_b``'s relation within the remaining
        relation graph.
        """
        if self._id_mask is not None:
            described = self._catalog.describe(t_b)
            if described is not None:
                catalog = self._catalog
                gid, relation_bit, _ = described
                survivors = self._id_mask & catalog.consistent_mask(gid)
                if not survivors:
                    return TupleSet.singleton(t_b, catalog=catalog)
                component = catalog.relation_component(
                    relation_bit.bit_length() - 1,
                    catalog.relation_mask_of(survivors),
                )
                kept = survivors & catalog.tuples_in_relations(component)
                members = catalog.tuples_of_mask(kept)
                members.append(t_b)
                return TupleSet(members, catalog=catalog)

        survivors: List[Tuple] = [
            t
            for t in self._tuples
            if t.relation_name != t_b.relation_name and t.join_consistent_with(t_b)
        ]
        if not survivors:
            return TupleSet.singleton(t_b, catalog=self._catalog)
        # Connected component of t_b's relation among the surviving relations.
        schemas = {t.relation_name: t.schema for t in survivors}
        schemas[t_b.relation_name] = t_b.schema
        component = {t_b.relation_name}
        frontier = deque([t_b.relation_name])
        while frontier:
            current = frontier.popleft()
            for name, schema in schemas.items():
                if name not in component and schemas[current].connects_to(schema):
                    component.add(name)
                    frontier.append(name)
        kept = [t for t in survivors if t.relation_name in component]
        kept.append(t_b)
        return TupleSet(kept, catalog=self._catalog)


def jcc(tuples: Iterable[Tuple]) -> bool:
    """Convenience predicate: ``JCC`` of an arbitrary iterable of tuples."""
    return TupleSet(tuples).is_jcc
