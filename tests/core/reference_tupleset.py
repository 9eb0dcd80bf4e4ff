"""The dictionary/BFS tuple set, kept as the oracle of the interned ``TupleSet``.

This is the representation :class:`repro.core.tupleset.TupleSet` fell back
to before interning became total: a set of tuples that belongs to no
catalog, whose predicates merge the members' ``attribute -> value`` maps
and search the member schemas breadth first.  The equivalence suites
(``tests/core/test_tupleset_equivalence.py``) compare every predicate of the
interned set with this one, and drive ``reference_get_next_result`` over
these sets end to end.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from repro.relational.nulls import is_null
from repro.relational.tuples import Tuple


class ReferenceTupleSet:
    """An immutable set of tuples with the JCC predicates of Section 2,
    computed from the members' values alone."""

    def __init__(self, tuples: Iterable[Tuple]):
        frozen = frozenset(tuples)
        self._tuples: FrozenSet[Tuple] = frozen
        self._by_relation: Dict[str, Tuple] = {t.relation_name: t for t in frozen}
        self._relation_conflict = len(self._by_relation) != len(frozen)
        self._attribute_values: Optional[Dict[str, object]] = None
        self._join_consistent: Optional[bool] = None

    @classmethod
    def singleton(cls, t: Tuple) -> "ReferenceTupleSet":
        return cls((t,))

    # -- container protocol ------------------------------------------- #
    @property
    def tuples(self) -> FrozenSet[Tuple]:
        return self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, t: object) -> bool:
        return t in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceTupleSet):
            return NotImplemented
        return self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash(self._tuples)

    def __repr__(self) -> str:
        return "{" + ", ".join(sorted(t.label for t in self._tuples)) + "}"

    def issubset(self, other: "ReferenceTupleSet") -> bool:
        return self._tuples <= other._tuples

    def issuperset(self, other: "ReferenceTupleSet") -> bool:
        return other.issubset(self)

    @property
    def relations(self) -> FrozenSet[str]:
        return frozenset(self._by_relation)

    def tuple_from(self, relation_name: str) -> Optional[Tuple]:
        return self._by_relation.get(relation_name)

    def contains_tuple_from(self, relation_name: str) -> bool:
        return relation_name in self._by_relation

    def with_tuple(self, t: Tuple) -> "ReferenceTupleSet":
        return self if t in self._tuples else ReferenceTupleSet(self._tuples | {t})

    def union(self, other: "ReferenceTupleSet") -> "ReferenceTupleSet":
        return ReferenceTupleSet(self._tuples | other._tuples)

    # -- the JCC predicate --------------------------------------------- #
    def _attr_map(self) -> Dict[str, object]:
        """The merged ``attribute -> value`` map; computing it also decides
        join consistency."""
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
            self._join_consistent = join_consistent and not self._relation_conflict
        return values

    @property
    def is_join_consistent(self) -> bool:
        if self._join_consistent is None:
            self._attr_map()
        return self._join_consistent

    @property
    def is_connected(self) -> bool:
        if self._relation_conflict:
            return False
        if len(self._tuples) <= 1:
            return True
        schemas = {name: t.schema for name, t in self._by_relation.items()}
        names = list(schemas)
        seen = {names[0]}
        frontier = deque([names[0]])
        while frontier:
            current = frontier.popleft()
            for other in names:
                if other not in seen and schemas[current].connects_to(schemas[other]):
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(names)

    @property
    def is_jcc(self) -> bool:
        return self.is_join_consistent and self.is_connected

    # -- inner-loop tests ---------------------------------------------- #
    def can_absorb(self, t: Tuple) -> bool:
        """``JCC(T ∪ {t})``, assuming ``JCC(T)``: ``t`` agrees with the merged
        attribute map and shares an attribute with it (the map's keys are
        the union of the member schemas)."""
        if t in self._tuples or not self._tuples:
            return True
        if t.relation_name in self._by_relation:
            return False
        attribute_values = self._attr_map()
        connected = False
        for attribute, value in t.items():
            if attribute in attribute_values:
                connected = True
                existing = attribute_values[attribute]
                if is_null(existing) or is_null(value) or existing != value:
                    return False
        return connected

    def union_is_jcc(self, other: "ReferenceTupleSet") -> bool:
        """``JCC(T ∪ S)``, assuming both are JCC (Theorem 4.8's analysis).

        Compare the merged attribute maps in one pass; a disagreement
        involving a null needs the exact pairwise check, because the null
        may be carried by a tuple that belongs to *both* sets (tuples never
        constrain themselves).
        """
        if not self._tuples:
            return other.is_jcc
        if not other._tuples:
            return self.is_jcc
        shares_member = False
        for relation_name, t in other._by_relation.items():
            current = self._by_relation.get(relation_name)
            if current is not None:
                if current != t:
                    return False  # two distinct tuples of the same relation
                shares_member = True
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
            return shared_attribute or shares_member
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

    def maximal_jcc_subset_with(self, t_b: Tuple) -> "ReferenceTupleSet":
        """Footnote 3: drop the members inconsistent with ``t_b`` (its own
        relation's included), then keep the connected component of ``t_b``'s
        relation, found breadth first over the surviving schemas."""
        survivors: List[Tuple] = [
            t
            for t in self._tuples
            if t.relation_name != t_b.relation_name and t.join_consistent_with(t_b)
        ]
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
        return ReferenceTupleSet(kept)
