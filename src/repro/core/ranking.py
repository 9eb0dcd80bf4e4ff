"""Ranking functions over tuple sets (Section 5).

Every tuple ``t`` carries a numeric importance ``imp(t)``; a *ranking
function* ``f`` maps a tuple set to a number computable in polynomial time.
The paper's tractability frontier is the class of **monotonically
c-determined** functions: ``f`` is *c-determined* when the rank of any tuple
set ``T`` is already achieved by some connected subset ``T' ⊆ T`` with at most
``c`` tuples, and *monotonically* c-determined when, additionally, ``T' ⊆ T``
implies ``f(T') ≤ f(T)`` for connected tuple sets.  ``f_max`` is monotonically
1-determined; ``f_sum`` is not c-determined for any ``c`` and the top-1
problem for it is NP-hard (Proposition 5.1).

The classes here bundle the value function with the metadata
(``c``, monotonicity) that :func:`repro.core.priority.priority_incremental_fd`
needs to decide whether ranked retrieval is possible, plus the subset
enumeration used to seed the priority queues.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.relational.database import Database
from repro.relational.errors import RankingError
from repro.relational.tuples import Tuple
from repro.core.incremental import EXACT
from repro.core.tupleset import TupleSet

#: How importances may be supplied: a mapping from tuple label, or a callable.
ImportanceSpec = Union[Dict[str, float], Callable[[Tuple], float], None]

#: Sentinel distinguishing "no default supplied" from an explicit ``None``.
_NO_DEFAULT = object()


def importance_function(
    spec: ImportanceSpec, default: object = _NO_DEFAULT
) -> Callable[[Tuple], float]:
    """Normalise an importance specification into a ``tuple -> float`` callable.

    * ``None`` — use the importance stored on each tuple (``t.importance``);
    * a mapping — look the tuple's label up.  A label missing from the
      mapping raises :class:`RankingError` when it is scored: a typo'd
      importance map must surface as an error, not as a silently wrong
      ranking order.  Pass an explicit ``default=`` to opt back into scoring
      unlisted labels with that value;
    * a callable — used as is.
    """
    if spec is None:
        return lambda t: t.importance
    if callable(spec):
        return spec
    if isinstance(spec, dict):
        if default is _NO_DEFAULT:

            def lookup(t: Tuple) -> float:
                try:
                    return float(spec[t.label])
                except KeyError:
                    raise RankingError(
                        f"tuple label {t.label!r} has no entry in the importance "
                        "map; pass default= to score unlisted labels, or fix "
                        "the map"
                    ) from None

            return lookup
        return lambda t: float(spec.get(t.label, default))
    raise RankingError(f"cannot interpret importance specification {spec!r}")


def validate_importance_spec(
    database: Database, spec: ImportanceSpec, default: object = _NO_DEFAULT
) -> None:
    """Eagerly check a dict importance spec against the database's labels.

    Raises :class:`RankingError` when the mapping holds keys matching no
    tuple label (a typo'd map scores the *intended* tuple wrongly even when a
    ``default`` covers the typo'd key), or — unless ``default`` is given —
    when some database tuple has no entry.  Non-dict specs always pass: a
    callable or the stored-importance mode cannot be label-typo'd.

    The serving layer runs this at ranked ``open`` time so a bad spec is a
    client error, not a wrong answer stream.
    """
    if not isinstance(spec, dict):
        return
    labels = {t.label for t in database.tuples()}
    unknown = sorted(set(spec) - labels)
    if unknown:
        raise RankingError(
            f"importance map keys {unknown} match no tuple label in the database"
        )
    if default is _NO_DEFAULT:
        missing = sorted(labels - set(spec))
        if missing:
            raise RankingError(
                f"tuple labels {missing} have no entry in the importance map; "
                "pass default= to score unlisted labels"
            )


class RankingFunction:
    """Base class of ranking functions.

    Subclasses implement :meth:`score`; the metadata attributes describe where
    the function sits relative to the paper's tractability frontier.

    Attributes
    ----------
    c:
        The determination bound ``c`` when the function is c-determined,
        ``None`` otherwise.
    monotone:
        Whether the function is monotone under inclusion of connected tuple
        sets.  Ranked retrieval requires ``c`` to be set and ``monotone`` to
        be true.
    """

    name = "ranking"
    c: Optional[int] = None
    monotone: bool = False

    def score(self, tuple_set: TupleSet) -> float:
        raise NotImplementedError

    def __call__(self, tuple_set: TupleSet) -> float:
        return self.score(tuple_set)

    @property
    def is_monotonically_c_determined(self) -> bool:
        """Whether the function admits ranked retrieval (Theorem 5.5)."""
        return self.c is not None and self.monotone

    def require_monotonically_c_determined(self) -> None:
        """Raise :class:`RankingError` unless ranked retrieval is supported."""
        if not self.is_monotonically_c_determined:
            raise RankingError(
                f"ranking function {self.name!r} is not monotonically c-determined; "
                "ranked retrieval is not guaranteed (see Proposition 5.1)"
            )

    def cache_key(self):
        """A hashable identity for result-prefix caching, or ``None``.

        Two ranking functions with equal cache keys must rank every tuple set
        identically — the serving layer's prefix cache keys ranked result
        logs by ``(database generation, ranking cache key, c)``.  ``None``
        (the default) means "no stable identity": the cache falls back to
        object identity, which is always safe but never shares.
        """
        return None


class MaxRanking(RankingFunction):
    """``f_max(T) = max { imp(t) | t ∈ T }`` — monotonically 1-determined."""

    name = "f_max"
    c = 1
    monotone = True

    def __init__(self, importance: ImportanceSpec = None, default: object = _NO_DEFAULT):
        self._imp = importance_function(importance, default=default)
        self._spec = importance
        self._default = default

    def score(self, tuple_set: TupleSet) -> float:
        if len(tuple_set) == 0:
            return float("-inf")
        return max(self._imp(t) for t in tuple_set)

    def cache_key(self):
        """Stable for the declarative specs (a dict, or stored importance)."""
        if type(self) is not MaxRanking:
            # A subclass may override score(); its identity is not captured
            # by the spec alone, so it must not collide with MaxRanking.
            return None
        if self._spec is None:
            # Stored-importance mode ignores ``default`` entirely, so it
            # must not fragment the cache key either.
            return (self.name, self.c, "tuple-importance", None)
        default = None if self._default is _NO_DEFAULT else ("default", self._default)
        if isinstance(self._spec, dict):
            return (self.name, self.c, tuple(sorted(self._spec.items())), default)
        return None  # an arbitrary callable has no stable identity


class SumRanking(RankingFunction):
    """``f_sum(T) = Σ imp(t)`` — *not* c-determined; top-1 is NP-hard (Prop. 5.1)."""

    name = "f_sum"
    c = None
    monotone = True

    def __init__(self, importance: ImportanceSpec = None, default: object = _NO_DEFAULT):
        self._imp = importance_function(importance, default=default)

    def score(self, tuple_set: TupleSet) -> float:
        return sum(self._imp(t) for t in tuple_set)


class CDeterminedRanking(RankingFunction):
    """A generic monotonically c-determined ranking function.

    The rank of ``T`` is the maximum of ``subset_score`` over the connected
    subsets of ``T`` with at most ``c`` tuples (the empty subset is not
    considered; singletons count as connected).  Any ``subset_score`` makes
    the function c-determined by construction; it is monotone because adding
    tuples to ``T`` can only enlarge the set of scored subsets.

    Parameters
    ----------
    c:
        The determination bound (a small constant).
    subset_score:
        A function from a tuple of member tuples (size between 1 and ``c``)
        to a number.
    name:
        Optional display name.
    """

    monotone = True

    def __init__(
        self,
        c: int,
        subset_score: Callable[[Sequence[Tuple]], float],
        name: str = "f_c",
    ):
        if c < 1:
            raise RankingError(f"c must be at least 1, got {c}")
        self.c = c
        self.name = name
        self._subset_score = subset_score

    def score(self, tuple_set: TupleSet) -> float:
        best = float("-inf")
        members = sorted(tuple_set, key=lambda t: (t.relation_name, t.label))
        for size in range(1, min(self.c, len(members)) + 1):
            for subset in itertools.combinations(members, size):
                if size > 1 and not TupleSet(subset, tuple_set.catalog).is_connected:
                    continue
                value = self._subset_score(subset)
                if value > best:
                    best = value
        return best


def paper_example_ranking(
    importance: ImportanceSpec = None, default: object = _NO_DEFAULT
) -> CDeterminedRanking:
    """The monotonically 3-determined example of Section 5.

    ``f(T) = max { imp(t1) + imp(t2) · imp(t3) | t1, t2, t3 ∈ T, {t1,t2,t3} connected }``

    Subsets smaller than three are scored by padding with the best available
    member (the paper's expression ranges over all triples of not necessarily
    distinct tuples).
    """
    imp = importance_function(importance, default=default)

    def subset_score(subset: Sequence[Tuple]) -> float:
        values = [imp(t) for t in subset]
        best = float("-inf")
        for t1, t2, t3 in itertools.product(values, repeat=3):
            best = max(best, t1 + t2 * t3)
        return best

    return CDeterminedRanking(3, subset_score, name="f_example_3det")


def _grow_subsets(
    database: Database, seeds: Iterable[TupleSet], max_size: int, semantics
) -> Iterator[TupleSet]:
    """The seeds that qualify, then every set grown from them one tuple at a
    time, up to ``max_size`` tuples, through ``semantics``' growth test.

    Every qualifying connected set has a build order from its seed whose
    prefixes are connected (a spanning-tree traversal), and join
    consistency — or, for an acceptable ``A``, ``A ≥ τ`` — holds for those
    prefixes too, so tuple-by-tuple growth reaches every qualifying set.
    Each set is yielded once; a set already seen is not tested again.
    """
    if max_size < 1:
        raise RankingError(f"max_size must be at least 1, got {max_size}")
    can_absorb = semantics.can_absorb
    qualifies = semantics.qualifies
    frontier: List[TupleSet] = [seed for seed in seeds if qualifies(seed)]
    seen = set(frontier)
    yield from frontier
    if max_size == 1:
        # The common case (f_max is 1-determined): no growth, and no O(s)
        # copy of the database.
        return
    all_tuples = list(database.tuples())
    for _ in range(max_size - 1):
        next_frontier: List[TupleSet] = []
        for current in frontier:
            for t in all_tuples:
                if t in current or not can_absorb(current, t):
                    continue
                grown = current.with_tuple(t)
                if grown in seen or not qualifies(grown):
                    continue
                seen.add(grown)
                next_frontier.append(grown)
                yield grown
        frontier = next_frontier


def enumerate_connected_subsets(
    database: Database,
    anchor_name: str,
    max_size: int,
    catalog,
    semantics=EXACT,
) -> Iterator[TupleSet]:
    """Every JCC tuple set of size at most ``max_size`` containing a tuple of ``R_i``.

    This is the initialization of ``PriorityIncrementalFD`` (Lines 3–4 of
    Fig. 3).  The enumeration grows sets tuple by tuple, so its cost is
    ``O(s^c)`` for ``c = max_size`` — polynomial for constant ``c``.  Under
    an :class:`~repro.core.approx.ApproxSemantics` the sets are the
    connected ones with ``A ≥ τ`` instead.
    """
    seeds = (TupleSet.singleton(t, catalog) for t in database.relation(anchor_name))
    return _grow_subsets(database, seeds, max_size, semantics)


def enumerate_connected_subsets_containing(
    database: Database,
    t: Tuple,
    max_size: int,
    catalog,
    semantics=EXACT,
) -> Iterator[TupleSet]:
    """Every JCC tuple set of size at most ``max_size`` containing ``t``.

    The bounded variant of :func:`enumerate_connected_subsets` used by ranked
    delta maintenance: when ``t`` arrives on a stream, the only size-≤c
    witness subsets the priority queues are missing are exactly the ones
    containing ``t`` — everything else was enumerated when the queues were
    built.  Cost is ``O(s^(c-1))`` per arrival instead of the ``O(s^c)``
    rebuild.
    """
    return _grow_subsets(
        database, [TupleSet.singleton(t, catalog)], max_size, semantics
    )


def canonical_rank_key(item):
    """Sort key placing a ``(tuple set, score)`` stream in canonical rank order.

    Highest score first, ties broken by the tuple set's sort key.  This is
    the *serving contract* for ranked streams: the delta-maintained stream
    and the full-recompute reference both order every emitted batch with
    this key, which is what makes them byte-identical — keep it the single
    definition.
    """
    tuple_set, score = item
    return (-score, tuple_set.sort_key())


def top_k_by_exhaustive_ranking(
    results: Iterable[TupleSet],
    ranking: RankingFunction,
    k: int,
) -> List[TupleSet]:
    """Rank an already-computed full disjunction and return its top ``k`` members.

    This is the brute-force route the paper argues against: the whole (possibly
    exponential) result must be materialised first.  It is used as a test
    oracle and as the baseline of experiment E3.
    """
    ordered = sorted(results, key=lambda ts: (-ranking(ts), ts.sort_key()))
    return ordered[:k]
