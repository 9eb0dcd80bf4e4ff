"""Approximate-join functions (Section 6).

An *approximate join function* ``A`` maps a tuple set ``T`` to a value in
``[0, 1]`` — the likelihood that the tuples of ``T`` represent entities that
are join consistent and connected.  ``A`` is **acceptable** when

(i)  ``A(T) = 0`` whenever ``T`` is not connected, and
(ii) ``T ⊆ T'`` implies ``A(T) ≥ A(T')`` for connected ``T`` and ``T'``
     (growing a set can only lower the likelihood).

``A`` is **efficiently computable** (Definition 6.4) when, for any threshold
``τ``, tuple set ``T`` with ``A(T) ≥ τ`` and tuple ``t_b``, all maximal
subsets ``T' ⊆ T ∪ {t_b}`` with ``A(T') ≥ τ`` can be produced in polynomial
time.  The algorithm :mod:`repro.core.approx` only needs the subsets that
contain ``t_b``; that is what :meth:`ApproximateJoinFunction.candidate_extensions`
returns.

Two approximate join functions from Example 6.1 are provided — ``A_min``
(efficiently computable, Proposition 6.5) and ``A_prod`` — together with the
similarity (``sim``) and probability (``prob``) ingredients they are built
from, and an :class:`ExactJoin` adapter that reduces the approximate machinery
to ordinary join consistency (useful for cross-checking the two algorithms).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple as TupleType, Union

from repro.relational.errors import ApproximateJoinError
from repro.relational.nulls import is_null
from repro.relational.tuples import Tuple
from repro.core.tupleset import TupleSet


# --------------------------------------------------------------------------- #
# similarity functions
# --------------------------------------------------------------------------- #
def levenshtein(first: str, second: str) -> int:
    """Edit distance between two strings (classic dynamic program)."""
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    previous = list(range(len(second) + 1))
    for i, first_char in enumerate(first, start=1):
        current = [i]
        for j, second_char in enumerate(second, start=1):
            cost = 0 if first_char == second_char else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def string_similarity(first: str, second: str) -> float:
    """Normalised edit-distance similarity in ``[0, 1]`` (1 means equal)."""
    longest = max(len(first), len(second))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(first, second) / longest


class SimilarityFunction:
    """Base class of tuple-pair similarity functions ``sim(t, t')``.

    Implementations must be symmetric; :meth:`__call__` enforces a canonical
    argument order so subclasses only implement :meth:`compute`.
    """

    def compute(self, first: Tuple, second: Tuple) -> float:
        raise NotImplementedError

    def __call__(self, first: Tuple, second: Tuple) -> float:
        if (second.relation_name, second.label) < (first.relation_name, first.label):
            first, second = second, first
        value = self.compute(first, second)
        if not (0.0 <= value <= 1.0):
            raise ApproximateJoinError(
                f"similarity of ({first.label}, {second.label}) is {value}, outside [0, 1]"
            )
        return value


class ExactMatchSimilarity(SimilarityFunction):
    """``sim(t, t') = 1`` when the pair is join consistent, ``0`` otherwise.

    With this similarity the approximate machinery degenerates to the exact
    one (for any threshold ``τ > 0``).
    """

    def compute(self, first: Tuple, second: Tuple) -> float:
        return 1.0 if first.join_consistent_with(second) else 0.0


class EditDistanceSimilarity(SimilarityFunction):
    """Similarity of the values of shared attributes, via normalised edit distance.

    For every attribute the two schemas share, the cell values are compared:
    equal non-null values contribute 1, a null on either side contributes 0,
    differing strings contribute their normalised edit-distance similarity and
    differing non-string values contribute 0.  The pair similarity is the
    minimum contribution over the shared attributes (the weakest link decides
    whether the tuples describe the same entity); pairs with no shared
    attribute get 1, but such pairs never constrain an approximate join.
    """

    def compute(self, first: Tuple, second: Tuple) -> float:
        shared = first.schema.shared_attributes(second.schema)
        if not shared:
            return 1.0
        worst = 1.0
        for attribute in shared:
            mine = first[attribute]
            theirs = second[attribute]
            if is_null(mine) or is_null(theirs):
                contribution = 0.0
            elif mine == theirs:
                contribution = 1.0
            elif isinstance(mine, str) and isinstance(theirs, str):
                contribution = string_similarity(mine, theirs)
            else:
                contribution = 0.0
            worst = min(worst, contribution)
        return worst


class TableSimilarity(SimilarityFunction):
    """A similarity given explicitly per tuple-label pair (as in Fig. 4).

    Pairs absent from the table fall back to ``default`` (a similarity
    function or a constant).
    """

    def __init__(
        self,
        table: Dict[FrozenSet[str], float],
        default: Union[float, SimilarityFunction] = 0.0,
    ):
        self._table = {frozenset(key): float(value) for key, value in table.items()}
        self._default = default

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[TupleType[str, str, float]],
        default: Union[float, SimilarityFunction] = 0.0,
    ) -> "TableSimilarity":
        """Build the table from ``(label, label, similarity)`` triples."""
        return cls({frozenset((a, b)): value for a, b, value in pairs}, default=default)

    def compute(self, first: Tuple, second: Tuple) -> float:
        key = frozenset((first.label, second.label))
        if key in self._table:
            return self._table[key]
        if isinstance(self._default, SimilarityFunction):
            return self._default(first, second)
        return float(self._default)


# --------------------------------------------------------------------------- #
# approximate join functions
# --------------------------------------------------------------------------- #
ProbabilityFunction = Callable[[Tuple], float]


def tuple_probability(t: Tuple) -> float:
    """The default ``prob``: the probability stored on the tuple itself."""
    return t.probability


def connected_pairs(tuple_set: TupleSet) -> Iterable[TupleType[Tuple, Tuple]]:
    """The pairs of member tuples whose relations share an attribute."""
    members = sorted(tuple_set, key=lambda t: (t.relation_name, t.label))
    for first, second in itertools.combinations(members, 2):
        if first.connects_to(second):
            yield first, second


class ApproximateJoinFunction:
    """Base class of approximate join functions ``A``.

    Subclasses implement :meth:`score`.  :meth:`candidate_extensions` has a
    generic implementation that works for every *acceptable* ``A`` (it walks
    subsets of ``T ∪ {t_b}`` top-down, which is exponential only in the number
    of relations); functions with a polynomial procedure — such as ``A_min`` —
    override it.
    """

    name = "A"

    def score(self, tuple_set: TupleSet) -> float:
        raise NotImplementedError

    def __call__(self, tuple_set: TupleSet) -> float:
        value = self.score(tuple_set)
        if not (0.0 <= value <= 1.0):
            raise ApproximateJoinError(
                f"{self.name}({tuple_set!r}) = {value}, outside [0, 1]"
            )
        return value

    # -- acceptability ---------------------------------------------------- #
    def check_acceptable_on(self, tuple_sets: Sequence[TupleSet]) -> bool:
        """Spot-check the two acceptability conditions on the given sets.

        Used by tests and by callers that want to validate a custom function:
        verifies ``A(T) = 0`` for disconnected sets and anti-monotonicity for
        every connected pair ``T ⊆ T'`` among the supplied sets.
        """
        for tuple_set in tuple_sets:
            if not tuple_set.is_connected and self(tuple_set) != 0.0:
                return False
        for first in tuple_sets:
            for second in tuple_sets:
                if first.is_connected and second.is_connected and first.issubset(second):
                    if self(first) < self(second):
                        return False
        return True

    # -- efficient computability ------------------------------------------ #
    def candidate_extensions(
        self, tuple_set: TupleSet, t_b: Tuple, threshold: float
    ) -> List[TupleSet]:
        """All maximal ``T' ⊆ T ∪ {t_b}`` containing ``t_b`` with ``A(T') ≥ threshold``.

        Generic top-down search: start from ``T ∪ {t_b}``; whenever a set
        scores below the threshold, branch by removing one member other than
        ``t_b``.  Acceptability guarantees that any qualifying subset is
        reachable this way.  The result keeps only maximal sets.
        """
        catalog = tuple_set.catalog
        if self(TupleSet.singleton(t_b, catalog)) < threshold:
            return []
        qualifying: List[TupleSet] = []
        seen = set()
        frontier = [tuple_set.with_tuple(t_b)]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if current.is_connected and self(current) >= threshold:
                qualifying.append(current)
                continue
            if len(current) <= 1:
                continue
            for member in current:
                if member == t_b:
                    continue
                frontier.append(current.difference(TupleSet.singleton(member, catalog)))
        # Keep only the maximal qualifying sets.
        maximal: List[TupleSet] = []
        for candidate in qualifying:
            if any(candidate != other and candidate.issubset(other) for other in qualifying):
                continue
            if candidate not in maximal:
                maximal.append(candidate)
        return maximal


class MinJoin(ApproximateJoinFunction):
    """``A_min`` of Example 6.1.

    ``A_min(T)`` is 0 when ``T`` is not connected, ``prob(t)`` when ``T`` is
    the singleton ``{t}``, and otherwise the minimum over all member
    probabilities and all similarities of connected member pairs.  It is
    acceptable and efficiently computable (Proposition 6.5).
    """

    name = "A_min"

    def __init__(
        self,
        similarity: SimilarityFunction,
        probability: ProbabilityFunction = tuple_probability,
    ):
        self._sim = similarity
        self._prob = probability

    def score(self, tuple_set: TupleSet) -> float:
        if len(tuple_set) == 0:
            return 1.0
        if not tuple_set.is_connected:
            return 0.0
        members = list(tuple_set)
        if len(members) == 1:
            return self._prob(members[0])
        worst = min(self._prob(t) for t in members)
        for first, second in connected_pairs(tuple_set):
            worst = min(worst, self._sim(first, second))
        return worst

    def candidate_extensions(
        self, tuple_set: TupleSet, t_b: Tuple, threshold: float
    ) -> List[TupleSet]:
        """Proposition 6.5: the unique maximal qualifying subset containing ``t_b``.

        If ``prob(t_b) < τ`` there is none.  Otherwise drop every member whose
        relation is ``t_b``'s or whose similarity to ``t_b`` is below ``τ``,
        then keep the connected component of ``t_b``; member probabilities and
        member-pair similarities already satisfy the threshold because
        ``A_min(T) ≥ τ``.
        """
        if self._prob(t_b) < threshold:
            return []
        survivors = [
            t
            for t in tuple_set
            if t.relation_name != t_b.relation_name
            and (not t.connects_to(t_b) or self._sim(t, t_b) >= threshold)
        ]
        # Keep the connected component of t_b among the survivors.
        component = _connected_component_with(survivors, t_b)
        result = TupleSet(component + [t_b], tuple_set.catalog)
        return [result]


def _connected_component_with(survivors: List[Tuple], t_b: Tuple) -> List[Tuple]:
    """Members of ``survivors`` whose relations lie in the connected component of ``t_b``."""
    component = [t_b]
    remaining = list(survivors)
    changed = True
    while changed:
        changed = False
        still_remaining = []
        for t in remaining:
            if any(t.connects_to(member) for member in component):
                component.append(t)
                changed = True
            else:
                still_remaining.append(t)
        remaining = still_remaining
    return [t for t in component if t != t_b]


class ProductJoin(ApproximateJoinFunction):
    """``A_prod`` of Example 6.1.

    ``A_prod(T)`` is 0 when ``T`` is not connected, 1 when ``T`` is a
    singleton, and otherwise the product of the similarities of all connected
    member pairs.  Unlike ``A_min`` there may be several maximal qualifying
    subsets when a new tuple is considered (Example 6.3); the generic
    top-down enumeration of the base class handles that case.
    """

    name = "A_prod"

    def __init__(self, similarity: SimilarityFunction):
        self._sim = similarity

    def score(self, tuple_set: TupleSet) -> float:
        if len(tuple_set) == 0:
            return 1.0
        if not tuple_set.is_connected:
            return 0.0
        if len(tuple_set) == 1:
            return 1.0
        product = 1.0
        for first, second in connected_pairs(tuple_set):
            product *= self._sim(first, second)
        return product


class ExactJoin(ApproximateJoinFunction):
    """The exact JCC predicate expressed as an approximate join function.

    ``A(T) = 1`` when ``JCC(T)`` holds and ``0`` otherwise.  With any
    threshold ``0 < τ ≤ 1`` the approximate algorithm then computes exactly
    the ordinary full disjunction, which tests exploit to cross-check the two
    implementations.
    """

    name = "A_exact"

    def score(self, tuple_set: TupleSet) -> float:
        if len(tuple_set) == 0:
            return 1.0
        return 1.0 if tuple_set.is_jcc else 0.0

    def candidate_extensions(
        self, tuple_set: TupleSet, t_b: Tuple, threshold: float
    ) -> List[TupleSet]:
        """Footnote 3: the unique maximal JCC subset containing ``t_b``."""
        return [tuple_set.maximal_jcc_subset_with(t_b)]
