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

**One representation.**  A set is always interned in a
:class:`~repro.relational.catalog.Catalog`: ``TupleSet(tuples, catalog)``
requires the catalog and raises ``ValueError`` for a tuple it does not
describe.  Besides its members the set stores three integers: a bitmask of
member tuple ids, a bitmask of member relation ids, and the union of the
members' schema-adjacency masks.  Every predicate reduces to bitwise AND/OR
against the catalog's precomputed join-consistency and adjacency
bitmatrices — no dict merges, no per-attribute loops:

* ``issubset`` is one ``AND``/``NOT`` over tuple-id masks;
* ``union_is_jcc`` ANDs each new tuple's precomputed consistency mask against
  the other operand's id mask, then decides connectivity from the adjacency
  masks;
* ``can_absorb`` is the same test for a single tuple;
* ``maximal_jcc_subset_with`` intersects the id mask with the new tuple's
  consistency mask and runs the footnote-3 component search on relation-id
  bitmasks.

Derived sets (``union``, ``with_tuple``, ``difference``, …) keep the
catalog, so every set a run grows from its seeds is of the run's catalog.
The predicates that combine two operands refuse, with ``ValueError``, an
operand of another catalog: its ids mean other tuples.  Equality, hashing
and ``issubset`` compare member tuples when the catalogs differ, which is
value equality, not a second predicate.  The dictionary/BFS definition of
the predicates is the test oracle ``tests/core/reference_tupleset.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple as TupleType

from repro.relational.tuples import Tuple


def _unknown(t: Tuple) -> ValueError:
    return ValueError(f"tuple {t.label!r} of {t.relation_name!r} is not in the catalog")


def _two_catalogs() -> ValueError:
    return ValueError("the operands are interned in two catalogs; a query runs in one")


class TupleSet:
    """An immutable set of tuples of one catalog, at most one per relation in
    the JCC case.

    The constructor accepts any iterable of tuples; consistency and
    connectivity are *computed*, not assumed, so the class can also represent
    candidate sets that fail the JCC test.

    Parameters
    ----------
    tuples:
        The member tuples.
    catalog:
        The :class:`~repro.relational.catalog.Catalog` the set is interned
        in; every member must be catalogued there (``ValueError``
        otherwise).  The predicates run on integer bitmasks against the
        catalog's precomputed matrices (see the module docstring).
    """

    __slots__ = (
        "_tuples",
        "_by_relation",
        "_join_consistent",
        "_hash",
        "_catalog",
        "_id_mask",
        "_relation_mask",
        "_adjacent_relations",
    )

    def __init__(self, tuples: Iterable[Tuple], catalog):
        if catalog is None:
            raise TypeError("a TupleSet needs the catalog it is interned in")
        frozen = frozenset(tuples)
        self._tuples: FrozenSet[Tuple] = frozen
        self._hash = hash(frozen)
        self._by_relation: Dict[str, Tuple] = {t.relation_name: t for t in frozen}
        self._join_consistent: Optional[bool] = None

        id_mask = 0
        relation_mask = 0
        adjacent = 0
        describe = catalog.describe
        for t in frozen:
            described = describe(t)
            if described is None:
                raise _unknown(t)
            gid, relation_bit, adjacency = described
            id_mask |= 1 << gid
            relation_mask |= relation_bit
            adjacent |= adjacency
        self._catalog = catalog
        self._id_mask = id_mask
        self._relation_mask = relation_mask
        self._adjacent_relations = adjacent

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def of(cls, *tuples: Tuple, catalog) -> "TupleSet":
        """Build a tuple set from tuples given as positional arguments."""
        return cls(tuples, catalog)

    @classmethod
    def singleton(cls, t: Tuple, catalog) -> "TupleSet":
        """Build the singleton tuple set ``{t}``."""
        return cls((t,), catalog)

    @classmethod
    def singleton_at(cls, gid: int, catalog) -> "TupleSet":
        """The singleton of ``catalog``'s tuple ``gid``, interned at ``gid``
        even when that incarnation is tombstoned and the catalog's lookup
        names a live namesake."""
        tuple_set = cls((catalog.tuple_at(gid),), catalog)
        tuple_set._id_mask = 1 << gid
        return tuple_set

    @classmethod
    def empty(cls, catalog) -> "TupleSet":
        """The empty tuple set (connected and join consistent by convention)."""
        return cls((), catalog)

    # ------------------------------------------------------------------ #
    # interning
    # ------------------------------------------------------------------ #
    @property
    def catalog(self):
        """The catalog the set is interned in."""
        return self._catalog

    @property
    def id_mask(self) -> int:
        """The member-tuple bitmask."""
        return self._id_mask

    @property
    def relation_mask(self) -> int:
        """The member-relation bitmask."""
        return self._relation_mask

    @property
    def adjacent_relations(self) -> int:
        """Bitmask of the relations adjacent to a member relation."""
        return self._adjacent_relations

    def contains_tombstoned(self) -> bool:
        """Whether some member tuple is tombstoned in the set's catalog: one
        ``AND`` of the member bitmask against the catalog's tombstone set
        (the serving layer's liveness test)."""
        return bool(self._id_mask & self._catalog.dead_mask)

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
        if self._catalog is other._catalog:
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
        if self._catalog is other._catalog:
            return not (self._id_mask & ~other._id_mask)
        return self._tuples <= other._tuples

    def issuperset(self, other: "TupleSet") -> bool:
        """Return ``True`` when this set contains every tuple of ``other``."""
        return other.issubset(self)

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
    # relations
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

    # ------------------------------------------------------------------ #
    # the JCC predicate
    # ------------------------------------------------------------------ #
    @property
    def is_join_consistent(self) -> bool:
        """Join consistency of the set (pairwise agreement on shared attributes).

        Every member must be consistent with every other member: one AND per
        member against its precomputed consistency mask.  A set with two
        distinct tuples of the same relation is inconsistent, because the
        consistency matrix never pairs tuples of one relation.
        """
        if self._join_consistent is None:
            catalog = self._catalog
            mask = self._id_mask
            consistent = True
            remaining = mask
            while remaining:
                low = remaining & -remaining
                if mask & ~(catalog.consistent_mask(low.bit_length() - 1) | low):
                    consistent = False
                    break
                remaining ^= low
            self._join_consistent = consistent
        return self._join_consistent

    @property
    def is_connected(self) -> bool:
        """Connectivity of the set, per the paper's definition.

        The empty set and singletons are connected.  A set with two tuples of
        the same relation is not connected (condition (i) of the definition).
        """
        if len(self._by_relation) != len(self._tuples):
            return False
        return self._catalog.relations_connected(self._relation_mask)

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
        return TupleSet(self._tuples | {t}, self._catalog)

    def union(self, other: "TupleSet") -> "TupleSet":
        """Return ``T ∪ S`` as a new tuple set, or ``self`` when ``S ⊆ T``.

        ``S`` must be of this set's catalog (``ValueError`` otherwise).
        """
        if other._catalog is not self._catalog:
            raise _two_catalogs()
        if not other._id_mask & ~self._id_mask:
            return self
        return TupleSet(self._tuples | other._tuples, self._catalog)

    def difference(self, other: "TupleSet") -> "TupleSet":
        """Return ``T \\ S`` as a new tuple set."""
        return TupleSet(self._tuples - other._tuples, self._catalog)

    # ------------------------------------------------------------------ #
    # inner-loop tests
    # ------------------------------------------------------------------ #
    def _describe(self, t: Tuple) -> TupleType[int, int, int]:
        """``catalog.describe(t)``, refusing a tuple the catalog does not know."""
        described = self._catalog.describe(t)
        if described is None:
            raise _unknown(t)
        return described

    def can_absorb(self, t: Tuple) -> bool:
        """Return ``True`` when ``JCC(T ∪ {t})`` holds, assuming ``JCC(T)``.

        This is the test of the maximal-extension loop (Lines 2–6 of
        ``GetNextResult``).  For the empty set it reduces to ``True`` (a
        singleton is always JCC).
        """
        if t in self._tuples or not self._tuples:
            return True
        gid, _, adjacency = self._describe(t)
        # Join consistency: t must be consistent with every member (the
        # consistency matrix also rejects a second tuple of t's relation);
        # connectivity: t's relation must be adjacent to a member relation.
        if self._id_mask & ~self._catalog.consistent_mask(gid):
            return False
        return bool(adjacency & self._relation_mask)

    def union_is_jcc(self, other: "TupleSet") -> bool:
        """Return ``True`` when ``JCC(T ∪ S)`` holds, assuming both are JCC.

        This is the test of Line 14 of ``GetNextResult``: every tuple of
        ``S \\ T`` must be consistent with all of ``T`` (one AND against its
        precomputed consistency mask — a second tuple of an already-present
        relation fails here too), and the union is connected exactly when the
        operands share a member or some relation of ``S`` is schema-adjacent
        to one of ``T``.
        """
        if not self._tuples:
            return other.is_jcc
        if not other._tuples:
            return self.is_jcc
        return self.union_is_jcc_mask(other._id_mask, other._relation_mask, other._catalog)

    def union_is_jcc_mask(self, id_mask: int, relation_mask: int, catalog) -> bool:
        """:meth:`union_is_jcc` for a JCC operand given as its tuple and
        relation bitmasks in ``catalog``, which must be this set's."""
        if catalog is not self._catalog:
            raise _two_catalogs()
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
        catalog = self._catalog
        gid, relation_bit, _ = self._describe(t_b)
        survivors = self._id_mask & catalog.consistent_mask(gid)
        if not survivors:
            return TupleSet((t_b,), catalog)
        component = catalog.relation_component(
            relation_bit.bit_length() - 1,
            catalog.relation_mask_of(survivors),
        )
        kept = survivors & catalog.tuples_in_relations(component)
        members = catalog.tuples_of_mask(kept)
        members.append(t_b)
        return TupleSet(members, catalog)
