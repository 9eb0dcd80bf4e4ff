"""``IncrementalFD`` and ``GetNextResult`` (Figs. 1 and 2 of the paper).

``incremental_fd(database, anchor)`` computes ``FD_i(R)``: the tuple sets of
the full disjunction that contain a tuple of the anchor relation ``R_i``.  It
is a generator — each result is delivered as soon as it is produced, which is
the whole point of the paper: the algorithm runs in *incremental polynomial
time* (Theorem 4.10), so the first ``k`` answers arrive after polynomial work
in the input and ``k``, long before the (possibly exponential) full result is
complete.

The structure follows the paper's pseudocode line by line:

``IncrementalFD(R, i)`` (Fig. 1)
    1.  ``Complete`` ← empty; ``Incomplete`` ← ``{ {t} | t ∈ R_i }``
    2.  while ``Incomplete`` is not empty:
    3.      ``T`` ← ``GetNextResult(R, i, Incomplete, Complete)``
    4.      print ``T``; append ``T`` to ``Complete``

``GetNextResult(R, i, Incomplete, Complete)`` (Fig. 2)
    1.  remove a tuple set ``T`` from ``Incomplete``
    2–6.   extend ``T`` maximally: repeatedly add any tuple ``t_g`` with
           ``JCC(T ∪ {t_g})`` until a full pass adds nothing
    7.  for each tuple ``t_b ∉ T``:
    8.      ``T'`` ← the maximal subset of ``T ∪ {t_b}`` containing ``t_b``
             that is join consistent and connected  (footnote 3)
    9.      if ``T'`` contains a tuple from ``R_i``:
    10–11.      if ``T'`` is contained in a member of ``Complete``: skip
    12–15.      else if some ``S ∈ Incomplete`` has ``JCC(S ∪ T')``:
                    replace ``S`` by ``S ∪ T'``
    16–18.      else: insert ``T'`` into ``Incomplete``
    19. return ``T``

``Complete`` and ``Incomplete`` are the hash tables Section 7 recommends in
place of the linked lists, keyed by the ``R_i`` tuple
(:mod:`repro.core.store`), so the probes of Lines 11 and 14 read one
bucket; the linear lists are the comparison arm of E1 and E6
(``benchmarks/linear_lists.py``).

**The step on masks.**  A pass over ``Tuples(R)`` does not visit tuples one
by one.  The scanner's :meth:`~repro.core.scanner.TupleScanner.mask_pass`
hands over the *plan*: the relations the pass reads, in scan order, each with
its live tuples as a gid mask.  Within a relation, scan order is increasing
gid order, so walking a relation's mask from its lowest bit meets the tuples
in the order a scan does: the catalog build issues ids relation by relation
in list order, an append takes the next id and lands at the end of its
relation, a removal keeps the order of the rest, and an update is a removal
plus an append.

* Lines 2–6 (:func:`maximally_extend`) keep the AND of the members'
  consistency rows.  Each pass visits every plan relation ``R_k`` adjacent
  to the set and absorbs the lowest bit of ``R_k``'s mask within that AND,
  then narrows the AND and widens the set's adjacency.  This is the tuple
  loop exactly: within ``R_k``'s stretch of a pass the set is fixed until its
  first absorption, and after that no other ``R_k`` tuple is consistent with
  it, because the consistency matrix rejects pairs from one relation.
* Lines 7–9 (:func:`line9_survivors`) compute, for each member ``m_j``, the
  mask ``X_j`` of the outside tuples whose footnote-3 subset keeps ``m_j``:
  those consistent with ``m_j`` whose relation is adjacent to ``m_j``'s, or
  to the relation of a member ``m_l`` with the tuple in ``X_l``, to a
  fixpoint.  The Line 9 survivors are ``X_anchor`` plus the outside tuples of
  ``R_i``.  A survivor ``t`` stands for ``T' = {t} ∪ {m_j : t ∈ X_j}``,
  given as its gid mask, relation mask and anchor tuple, and survivors are
  visited in plan order — relation order, then gid order — which is the
  order the tuple loop meets them in.
* Lines 10–18 keep each survivor a mask.  The ``Complete`` probe
  (:meth:`~repro.core.store.CompleteStore.contains_superset_mask`) visits the
  anchor bucket's relation-set groups and decides a stored set by
  ``T' & ~S``, or a whole group by one lookup when its relation set is the
  probe's.  The ``Incomplete`` probe tests each waiting set ``S`` of the
  anchor bucket against the survivor's *consistency closure*
  ``C(T') = AND over t ∈ T' of (row(t) | bit(t))``
  (:meth:`~repro.relational.catalog.Catalog.consistency_closure`), built
  once per survivor, at its first non-empty waiting set.
  ``union_is_jcc`` assumes both operands JCC, and so ``JCC(S ∪ T')`` holds
  exactly when ``S ⊆ C(T')`` — for ``t ∈ T' ∩ S`` the row test holds
  already, since ``S`` is join consistent — and ``S`` shares a member with
  ``T'`` or is adjacent to one of its relations.  The empty ``S`` merges.
  Every waiting set is of the survivor's catalog, the run's (see below).
  A survivor already inside the waiting set ``S`` it merges with makes the
  union ``S`` itself, so only the pool's ``replace(S, S)`` effect is
  applied (``requeue``).  A tuple set is built only for a Line 18 insert or
  a merge that grows ``S``.
* The *anchor singletons* — survivors ``t_b ∈ R_i`` in no member's reach,
  whose ``T'`` is ``{t_b}`` — are settled first, as one gid mask
  (:func:`_settle_singletons`).  ``{t_b}`` lies in a stored set exactly when
  the set holds ``t_b``, so Lines 10–11 are one AND with the gids
  ``Complete`` holds.  Every waiting set of ``t_b``'s bucket holds ``t_b``
  and is JCC, so the first merges, the union is itself, and Lines 12–15
  only move it to the end of its bucket, a change only where two or more
  wait.  No other survivor of the step has anchor ``t_b`` and ``Complete``
  does not change within a step, so only Line 18 inserts depend on order:
  singletons with an empty bucket stay in the per-survivor stream, at their
  plan position, with every other survivor.  The counters are added in bulk
  with the values the probes count.  A container that cannot answer on
  masks — the priority pool, or one holding a tombstoned tuple (see
  :mod:`repro.core.store`) — settles nothing, and then nothing is counted
  in bulk.
* Lines 1–4 of Fig. 1 hand the pool its default seeds as one gid mask
  (:meth:`~repro.core.pools.ListIncompletePool.seed`), so the first answer
  costs no work per tuple of ``R_i``: a seed's tuple set is built only when
  Line 1 pops it or a probe names its anchor.  A waiting seed ``{a}`` is the
  only waiting set with anchor ``a``, so every probe for ``a`` merges into
  it, and until then it is a bucket of one, as the settle counts it.

The pool therefore evolves, and the results come out, exactly as with the
tuple loop, and every counter keeps its meaning: each mask pass counts as
one scan pass and one read per tuple of the relations read,
``extension_passes`` counts the same passes,
``candidates_generated``/``candidates_without_anchor`` are added in bulk —
one candidate per outside tuple, all but the survivors without an anchor —
and the stores count the buckets, groups and sets the tuple-set probes
would have.

**One catalog per run.**  A run works in the catalog ``database.catalog()``
gave it at its start: its seeds, every set it derives and both containers
are of that catalog, and the containers refuse a set of another
(``ValueError``).  Appends, removals and updates made through the
:class:`~repro.relational.database.Database` keep that catalog current.  A
rebuild under the run — compaction, a new relation, or a change behind the
database's back — makes its next pass raise ``DatabaseError``, "restart
the query" (:func:`repro.core.scanner.require_current`).  Every predicate
the step asks of a tuple set then runs on that catalog's masks; the tuple
loop of Lines 2–18 is a way of *scanning*, not a second predicate.  It
remains the path for a set with a tombstoned member and for a
:class:`~repro.core.scanner.BlockScanner`, whose passes read tuples, and
the approximate semantics (:class:`~repro.core.approx.ApproxSemantics`)
always takes it.

**One loop for every driver.**  :func:`incremental_fd` is the only Fig. 1
loop.  Two rules let every driver run through it:

* ``semantics`` — :data:`EXACT`, or an ``ApproxSemantics(A, τ)`` that makes
  the loop ``ApproxIncrementalFD`` (Fig. 5): its default seeds are the
  singletons with ``A({t}) ≥ τ`` and each step is ``ApproxGetNextResult``
  (Fig. 6).  The approximate full disjunction runs one such pass per
  relation (:func:`repro.core.approx.approx_pass`).
* a shared ``complete`` — a result the shared store already covers was
  printed by another pass, so it is stored but not yielded.  The delta
  passes of streaming ingest (:mod:`repro.service.delta`) are this loop
  with explicit ``initial`` seeds and one ``Complete`` shared across their
  passes.

The ranked engines have one loop too, Fig. 3's
:meth:`repro.core.priority.PriorityState.results`, which takes the same
``semantics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Tuple as TupleType,
    Union,
)

from repro.relational.database import Database
from repro.relational.errors import DatabaseError
from repro.relational.tuples import Tuple
from repro.core.store import (
    CompleteStore,
    ListIncompletePool,
    PriorityIncompletePool,
    record_store_statistics,
)
from repro.core.pools import popcount
from repro.core.scanner import TupleScanner
from repro.core.tupleset import TupleSet


def _is_numeric(value: object) -> bool:
    """True for the accumulating ``extras`` types: int/float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class FDStatistics:
    """Work counters of one ``IncrementalFD`` run (or one pass of the driver).

    ``results`` counts the results *produced* (added to ``Complete``);
    ``results_emitted`` counts the results actually delivered to the caller.
    The two differ where production and delivery diverge: the exact
    full-disjunction driver (a set pass ``i`` produces over ``R_i, …, R_n``
    is dropped when it can absorb a tuple of an earlier relation — see
    :func:`repro.core.full_disjunction.restricted_pass` — and the scan
    counters ``tuple_reads``/``block_reads`` and the ``candidates_*``
    counters then cover ``R_i, …, R_n`` only), the ranked
    threshold path (a result produced at a rank tie straddling the threshold
    boundary is recorded in ``Complete`` — it was derived, and must suppress
    re-derivations — but never emitted) and *unranked* streaming delta
    passes (a re-derived old result is produced again but never re-emitted).
    The ranked engine — delta passes included — follows Fig. 3's Line 17
    convention instead: a duplicate popped through another queue is
    discarded before either counter moves, so ``results`` counts distinct
    productions there.
    """

    results: int = 0
    results_emitted: int = 0
    extension_passes: int = 0
    candidates_generated: int = 0
    candidates_subsumed: int = 0
    candidates_merged: int = 0
    candidates_inserted: int = 0
    candidates_without_anchor: int = 0
    tuple_reads: int = 0
    scan_passes: int = 0
    block_reads: int = 0
    extras: dict = field(default_factory=dict)

    def merge(self, other: "FDStatistics") -> "FDStatistics":
        """Accumulate another statistics object into this one (returns self).

        Numeric ``extras`` values accumulate; any other pairing — strings,
        booleans, or a numeric value meeting a non-numeric one — resolves
        deterministically to the incoming (``other``) value, last writer
        wins, so merging the passes' statistics in order is deterministic
        whatever each pass records there.
        """
        self.results += other.results
        self.results_emitted += other.results_emitted
        self.extension_passes += other.extension_passes
        self.candidates_generated += other.candidates_generated
        self.candidates_subsumed += other.candidates_subsumed
        self.candidates_merged += other.candidates_merged
        self.candidates_inserted += other.candidates_inserted
        self.candidates_without_anchor += other.candidates_without_anchor
        self.tuple_reads += other.tuple_reads
        self.scan_passes += other.scan_passes
        self.block_reads += other.block_reads
        for key, value in other.extras.items():
            existing = self.extras.get(key, 0 if _is_numeric(value) else None)
            if _is_numeric(value) and _is_numeric(existing):
                self.extras[key] = existing + value
            else:
                self.extras[key] = value
        return self

    def as_dict(self) -> dict:
        return {
            "results": self.results,
            "results_emitted": self.results_emitted,
            "extension_passes": self.extension_passes,
            "candidates_generated": self.candidates_generated,
            "candidates_subsumed": self.candidates_subsumed,
            "candidates_merged": self.candidates_merged,
            "candidates_inserted": self.candidates_inserted,
            "candidates_without_anchor": self.candidates_without_anchor,
            "tuple_reads": self.tuple_reads,
            "scan_passes": self.scan_passes,
            "block_reads": self.block_reads,
            **self.extras,
        }


AnchorSpec = Union[int, str]

#: Either of the Incomplete pool implementations accepted by ``get_next_result``.
IncompletePool = Union[ListIncompletePool, PriorityIncompletePool]


def resolve_anchor(database: Database, anchor: AnchorSpec) -> str:
    """Normalise an anchor given as a relation name or a zero-based index."""
    if isinstance(anchor, str):
        if anchor not in database:
            raise DatabaseError(f"no relation named {anchor!r}")
        return anchor
    return database.relation_at(anchor).name


def _consistent_with_all(catalog, members: int) -> int:
    """The AND of the members' consistency rows (all bits for no member)."""
    consistent = -1
    while members:
        low = members & -members
        consistent &= catalog.consistent_mask(low.bit_length() - 1)
        members ^= low
    return consistent


def _gid_mask(tuples, catalog) -> int:
    """The gid mask of the catalogued tuples among ``tuples``."""
    mask = 0
    for t in tuples:
        gid = catalog.id_of(t)
        if gid is not None:
            mask |= 1 << gid
    return mask


def _extend_by_tuples(
    tuple_set: TupleSet,
    scanner: TupleScanner,
    statistics: Optional[FDStatistics],
    semantics: "ExactSemantics",
) -> TupleSet:
    """Lines 2–6 one scanned tuple at a time: absorb each tuple that passes
    ``semantics``' one-tuple growth test, until a pass absorbs nothing.

    The exact step takes this path when a mask pass is refused; the
    approximate one always does.
    """
    can_absorb = semantics.can_absorb
    qualifies = semantics.qualifies
    current = tuple_set
    changed = True
    while changed:
        changed = False
        if statistics is not None:
            statistics.extension_passes += 1
        for candidate in scanner.scan():
            if candidate in current or not can_absorb(current, candidate):
                continue
            grown = current.with_tuple(candidate)
            if qualifies(grown):
                current = grown
                changed = True
    return current


def maximally_extend(
    tuple_set: TupleSet,
    scanner: TupleScanner,
    statistics: Optional[FDStatistics] = None,
) -> TupleSet:
    """Lines 2–6 of ``GetNextResult``: extend ``tuple_set`` with every tuple
    that keeps it join consistent and connected, until a fixpoint.

    The paper scans the whole database repeatedly; since a result holds at
    most one tuple per relation, at most ``n`` passes are needed.  Each pass
    runs on masks (see the module docstring) unless the scanner refuses a
    mask pass, in which case it reads tuple by tuple.  Either way the set
    absorbs the same tuples in the same order and the counters agree.
    """
    plan = scanner.mask_pass(tuple_set)
    if plan is None:
        return _extend_by_tuples(tuple_set, scanner, statistics, EXACT)
    catalog = tuple_set.catalog
    members = tuple_set.id_mask
    consistent = _consistent_with_all(catalog, members)
    # The empty set absorbs any tuple (``can_absorb``), so it is adjacent to all.
    adjacent = tuple_set.adjacent_relations if members else -1
    grown = members
    while True:
        if statistics is not None:
            statistics.extension_passes += 1
        changed = False
        for rid, live in plan:
            if not (adjacent >> rid) & 1:
                continue
            hits = live & consistent
            if hits:
                low = hits & -hits
                consistent &= catalog.consistent_mask(low.bit_length() - 1)
                adjacency = catalog.adjacency_mask(rid)
                adjacent = adjacent | adjacency if grown else adjacency
                grown |= low
                changed = True
        if not changed:
            break
        plan = scanner.mask_pass(tuple_set)
    if grown == members:
        return tuple_set
    absorbed = catalog.tuples_of_mask(grown & ~members)
    return TupleSet(list(tuple_set.tuples) + absorbed, catalog=catalog)


def anchored_candidates(
    candidates: Iterable[TupleSet],
    anchor: str,
    statistics: Optional[FDStatistics] = None,
) -> Iterator[TupleType[TupleSet, Tuple]]:
    """Line 9 for candidates built one at a time.

    Counts every candidate and yields ``(T', anchor tuple)`` for those that
    hold a tuple of the anchor relation.
    """
    for candidate in candidates:
        if statistics is not None:
            statistics.candidates_generated += 1
        anchor_tuple = candidate.tuple_from(anchor)
        if anchor_tuple is None:
            if statistics is not None:
                statistics.candidates_without_anchor += 1
            continue
        yield candidate, anchor_tuple


def line9_survivors(
    result: TupleSet,
    anchor: str,
    plan,
    statistics: Optional[FDStatistics] = None,
    settle: Optional[Callable[[int, object], int]] = None,
) -> Iterator[TupleType[int, int, int, Tuple]]:
    """Lines 7–9 on masks: the footnote-3 candidates that pass Line 9, in scan order.

    ``plan`` is the scanner's accepted :meth:`~TupleScanner.mask_pass` for
    ``result``.  Yields each survivor ``T'`` as ``(gid mask, relation mask,
    gid of t_b, anchor tuple)`` (see the module docstring); the candidate
    counters are added in bulk.  ``settle(singletons, catalog)``, when given,
    first takes the gid mask of the anchor singletons and returns those it
    settled, which are not yielded.
    """
    catalog = result.catalog
    members = result.id_mask
    outside = 0
    for _, live in plan:
        outside |= live
    outside &= ~members

    # X_j for each member m_j: the outside tuples whose footnote-3 subset
    # keeps m_j — consistent with m_j and connected to it through members
    # consistent with the tuple.
    gids = []
    remaining = members
    while remaining:
        low = remaining & -remaining
        gids.append(low.bit_length() - 1)
        remaining ^= low
    rids = [catalog.relation_of_tuple(gid) for gid in gids]
    rows = [catalog.consistent_mask(gid) for gid in gids]
    adjacency = [catalog.adjacency_mask(rid) for rid in rids]
    neighbours = [
        [l for l, other in enumerate(rids) if (adjacency[j] >> other) & 1]
        for j in range(len(gids))
    ]
    reach = [
        row & outside & catalog.tuples_in_relations(adjacent)
        for row, adjacent in zip(rows, adjacency)
    ]
    changed = True
    while changed:
        changed = False
        for j, row in enumerate(rows):
            grown = reach[j]
            for l in neighbours[j]:
                grown |= row & reach[l]
            if grown != reach[j]:
                reach[j] = grown
                changed = True

    # Line 9: a candidate's anchor tuple is t itself for t in R_i, else the
    # member of R_i when the candidate keeps it.
    anchor_rid = catalog.relation_id(anchor)
    anchor_member = result.tuple_from(anchor)
    in_anchor = outside & catalog.relation_tuples_mask(anchor_rid)
    survivors = in_anchor
    for rid, reached in zip(rids, reach):
        if rid == anchor_rid:
            survivors |= reached
    if statistics is not None:
        generated = popcount(outside)
        statistics.candidates_generated += generated
        statistics.candidates_without_anchor += generated - popcount(survivors)
    if settle is not None:
        for reached in reach:
            in_anchor &= ~reached
        if in_anchor:
            survivors &= ~settle(in_anchor, catalog)

    kept = [(1 << gid, 1 << rid, reached) for gid, rid, reached in zip(gids, rids, reach)]
    for rid, live in plan:
        chosen = survivors & live
        while chosen:
            low = chosen & -chosen
            mask = low
            relation_mask = 1 << rid
            for bit, relation_bit, reached in kept:
                if reached & low:
                    mask |= bit
                    relation_mask |= relation_bit
            gid = low.bit_length() - 1
            yield (
                mask,
                relation_mask,
                gid,
                catalog.tuple_at(gid) if rid == anchor_rid else anchor_member,
            )
            chosen ^= low


def _survivor_set(catalog, mask: int, gid: int) -> TupleSet:
    """A survivor of :func:`line9_survivors` as a tuple set: the members of
    ``mask`` in gid order, then ``t_b`` (the order Line 8 builds ``T'`` in)."""
    members = catalog.tuples_of_mask(mask & ~(1 << gid))
    members.append(catalog.tuple_at(gid))
    return TupleSet(members, catalog=catalog)


def _settle_singletons(incomplete, complete, statistics, singletons: int, catalog) -> int:
    """Lines 10–15 for the anchor singletons ``T' = {t_b}`` of the gid mask
    ``singletons``, all at once (see the module docstring); returns the gids
    settled, none when either container cannot answer on masks."""
    waiting = incomplete.waiting_anchors(catalog)
    if waiting is None:
        return 0
    covered = complete.covered_singletons(singletons, catalog)
    if covered is None:
        return 0
    once, twice = waiting
    merged = singletons & once & ~covered
    if merged:
        incomplete.requeue_singletons(merged, merged & twice, catalog)
    if statistics is not None:
        statistics.candidates_subsumed += popcount(covered)
        statistics.candidates_merged += popcount(merged)
    return covered | merged


def _place_survivors(
    catalog,
    survivors: Iterable[TupleType[int, int, int, Tuple]],
    incomplete: IncompletePool,
    complete: CompleteStore,
    statistics: Optional[FDStatistics] = None,
) -> None:
    """Lines 10–18 for the survivors of :func:`line9_survivors`, on masks.

    Each test visits and counts what the tuple-set loop of
    :func:`get_next_result` does, in the same order, so the pool evolves
    exactly as there.  A tuple set is built only for a Line 18 insert or a
    merge that grows the waiting set.
    """
    subsumed = merged = inserted = 0
    covered = complete.contains_superset_mask
    waiting_sets = incomplete.waiting
    for mask, relation_mask, gid, anchor_tuple in survivors:
        # Lines 10-11: already covered by a printed result?
        if covered(mask, relation_mask, anchor_tuple, catalog):
            subsumed += 1
            continue
        # Lines 12-15: merge into the first waiting S with JCC(S ∪ T').  When
        # T' ⊆ S the union is S itself, and replacing S by S only reorders.
        # That is S ⊆ C(T') — with T''s consistency closure built at the
        # first non-empty S — and S ∩ T' ≠ ∅ or S adjacent to a relation of
        # T' (see the module docstring).
        # The slots are read directly: this loop runs once per waiting set.
        closure = None
        for waiting in waiting_sets(anchor_tuple):
            held = waiting._id_mask
            if held:
                if closure is None:
                    closure = catalog.consistency_closure(mask)
                if held & closure != held or not (
                    held & mask or waiting._adjacent_relations & relation_mask
                ):
                    continue
            if not mask & ~held:
                incomplete.requeue(waiting, anchor_tuple)
            else:
                incomplete.replace(waiting, waiting.union(_survivor_set(catalog, mask, gid)))
            merged += 1
            break
        else:
            # Lines 16-18: otherwise it starts a new entry of Incomplete.
            incomplete.add(_survivor_set(catalog, mask, gid))
            inserted += 1
    if statistics is not None:
        statistics.candidates_subsumed += subsumed
        statistics.candidates_merged += merged
        statistics.candidates_inserted += inserted


class ExactSemantics:
    """The join semantics of Fig. 2: join consistent and connected (``JCC``).

    :func:`get_next_result` takes the three steps in which ``GetNextResult``
    (Fig. 2) and ``ApproxGetNextResult`` (Fig. 6) differ from its semantics:
    Lines 2–6, Lines 7–9 and the Line 14 merge test.  This class is the
    exact algorithm's; :class:`repro.core.approx.ApproxSemantics` supplies
    the starred ``(A, τ)`` steps.  Lines 7–9 come in two forms:
    :meth:`survivors` on masks, when the scanner accepts a mask pass, and
    :meth:`candidates` one tuple set per candidate otherwise.

    The drivers above the step ask two more tests of it.  The one-tuple
    growth test — used by the tuple loop of Lines 2–6 and by the size-≤c
    seed growth of ``PriorityIncrementalFD`` — is ``can_absorb(T, t)`` and
    then ``qualifies(T ∪ {t})``; the Line 3 seed test is
    ``qualifies({t})``.  Exactly, ``can_absorb`` is ``JCC(T ∪ {t})`` itself
    and every set qualifies; the starred versions test ``A(·) ≥ τ``.
    """

    @property
    def can_absorb(self) -> Callable[[TupleSet, Tuple], bool]:
        """The one-tuple growth test: ``TupleSet.can_absorb``, looked up
        once per loop like :attr:`mergeable`."""
        return TupleSet.can_absorb

    def qualifies(self, tuple_set: TupleSet) -> bool:
        """Line 3's seed test and the rest of the growth test: always true,
        since ``can_absorb`` has already decided ``JCC``."""
        return True

    def extend(self, tuple_set, scanner, statistics):
        """Lines 2–6: :func:`maximally_extend`."""
        return maximally_extend(tuple_set, scanner, statistics)

    def survivors(self, result, anchor, scanner, statistics, settle=None):
        """Lines 7–9 on masks (:func:`line9_survivors`, with ``settle``), or
        ``None``, counting nothing, when the scanner refuses a mask pass."""
        plan = scanner.mask_pass(result)
        if plan is None:
            return None
        return line9_survivors(result, anchor, plan, statistics, settle)

    def candidates(self, result, anchor, scanner, statistics):
        """Lines 7–9 one scanned tuple at a time: a footnote-3 candidate per
        tuple outside ``result``, through :func:`anchored_candidates`."""
        return anchored_candidates(
            (result.maximal_jcc_subset_with(t) for t in scanner.scan() if t not in result),
            anchor,
            statistics,
        )

    @property
    def mergeable(self) -> Callable[[TupleSet, TupleSet], bool]:
        """Line 14's test on ``(S, T')``: ``JCC(S ∪ T')``.

        This is ``TupleSet.union_is_jcc`` itself, looked up once per step,
        so the merge loop makes no extra call per waiting set.
        """
        return TupleSet.union_is_jcc


#: The default semantics of :func:`get_next_result`.
EXACT = ExactSemantics()


def get_next_result(
    database: Database,
    anchor: str,
    incomplete: IncompletePool,
    complete: CompleteStore,
    scanner: Optional[TupleScanner] = None,
    statistics: Optional[FDStatistics] = None,
    semantics=EXACT,
) -> TupleSet:
    """One call of ``GetNextResult`` (Fig. 2): produce the next result of ``FD_i``.

    The ``incomplete`` pool decides the extraction order.  For plain
    ``IncrementalFD`` the list pool pops the head and puts the candidates
    of this step at the head, in generation order, as in the paper's worked
    example; ``PriorityIncrementalFD`` pops the highest rank first.

    ``semantics`` supplies Lines 2–6, Lines 7–9 and the Line 14 test:
    :data:`EXACT` by default, or
    :class:`~repro.core.approx.ApproxSemantics` for ``ApproxGetNextResult``
    (Fig. 6).  Lines 1 and 10–19 are shared; when the semantics yields the
    Line 9 survivors on masks, Lines 10–18 run on masks too
    (:func:`_place_survivors`), with the same effect on both containers.
    """
    if scanner is None:
        scanner = TupleScanner(database)

    # Line 1: remove a tuple set from Incomplete.
    result = incomplete.pop()

    # Lines 2-6: extend it maximally.
    result = semantics.extend(result, scanner, statistics)

    # Lines 7-18: derive candidate tuple sets from the tuples left out; only
    # those holding a tuple of the anchor relation pass Line 9.  On masks
    # when the scanner accepts a mask pass, else one tuple set per candidate.
    settle = partial(_settle_singletons, incomplete, complete, statistics)
    survivors = semantics.survivors(result, anchor, scanner, statistics, settle)
    if survivors is not None:
        _place_survivors(result.catalog, survivors, incomplete, complete, statistics)
        return result
    mergeable = semantics.mergeable
    for candidate, anchor_tuple in semantics.candidates(result, anchor, scanner, statistics):
        # Lines 10-11: already covered by a printed result?
        if complete.contains_superset(candidate, anchor=anchor_tuple):
            if statistics is not None:
                statistics.candidates_subsumed += 1
            continue
        # Lines 12-15: can it be merged into a waiting tuple set?
        merged = False
        for waiting in incomplete.candidates(candidate):
            if mergeable(waiting, candidate):
                incomplete.replace(waiting, waiting.union(candidate))
                merged = True
                if statistics is not None:
                    statistics.candidates_merged += 1
                break
        if merged:
            continue
        # Lines 16-18: otherwise it starts a new entry of Incomplete.
        incomplete.add(candidate)
        if statistics is not None:
            statistics.candidates_inserted += 1

    # Line 19.
    return result


#: Signature of the per-iteration callback of ``incremental_fd``.
IterationCallback = Callable[[int, TupleSet, IncompletePool, CompleteStore], None]


def incremental_fd(
    database: Database,
    anchor: AnchorSpec,
    scanner: Optional[TupleScanner] = None,
    initial: Optional[Iterable[TupleSet]] = None,
    statistics: Optional[FDStatistics] = None,
    on_initialized: Optional[Callable[[IncompletePool, CompleteStore], None]] = None,
    on_iteration: Optional[IterationCallback] = None,
    complete: Optional[CompleteStore] = None,
    semantics=EXACT,
) -> Iterator[TupleSet]:
    """``IncrementalFD(R, i)`` (Fig. 1): generate ``FD_i(R)`` one tuple set at a time.

    Parameters
    ----------
    database:
        The relations ``R = {R_1, ..., R_n}``.
    anchor:
        The relation ``R_i``: its name or zero-based index.  Every generated
        tuple set contains exactly one tuple of this relation.
    scanner:
        How to read ``Tuples(R)``; defaults to a fresh tuple-at-a-time
        scanner.  Pass a :class:`~repro.core.scanner.BlockScanner` for the
        block-based execution of Section 7.
    initial:
        Explicit seeds of ``Incomplete``, as the delta passes of streaming
        ingest use them.  Defaults to the singleton sets ``{t}`` for every
        ``t ∈ R_i`` that pass ``semantics``' seed test.  The caller is
        responsible for respecting the conditions of Remarks 4.3 and 4.5.
    statistics:
        Optional counters to fill in.
    on_initialized / on_iteration:
        Hooks used by the trace harness (Table 3) and by tests: called after
        initialization and after each result is produced.
    complete:
        An externally managed ``Complete`` store, shared with other passes
        (the delta passes of streaming ingest).  A result the shared store
        already covers was printed by another pass — verbatim, or inside its
        maximal extension — so it is stored but not yielded again, and
        counts in ``results`` but not in ``results_emitted``.  Defaults to a
        fresh store, which covers no result before the pass produces it.
    semantics:
        :data:`EXACT` for ``IncrementalFD``, or an
        :class:`~repro.core.approx.ApproxSemantics` for
        ``ApproxIncrementalFD(R, i, A, τ)`` (Fig. 5): the default seeds are
        then the singletons with ``A({t}) ≥ τ`` (the starred Line 3) and
        every step is ``ApproxGetNextResult`` (Fig. 6).  The loop itself is
        the same.

    Yields
    ------
    TupleSet
        Each member of ``FD_i(R)`` (or ``AFD_i(R, A, τ)``), exactly once
        (Theorems 4.6 and 6.6).
    """
    anchor_name = resolve_anchor(database, anchor)
    if scanner is None:
        scanner = TupleScanner(database)
    catalog = database.catalog()
    incomplete = ListIncompletePool(anchor_name)
    shared_complete = complete is not None
    if not shared_complete:
        complete = CompleteStore(anchor_name)

    # Lines 1-4: initialization of the two lists.  Initial sets must be of
    # the run's catalog (the pool refuses others).  The default seeds go in
    # as one gid mask, in scan order (gid order): the live tuples of R_i that
    # pass the seed test.
    from repro.obs.tracing import trace_span

    with trace_span("engine.initialize", "engine", anchor=anchor_name):
        if initial is None:
            seeds = catalog.live_mask & catalog.relation_tuples_mask(
                catalog.relation_id(anchor_name)
            )
            if semantics is not EXACT:
                qualifying = (
                    t for t in catalog.tuples_of_mask(seeds)
                    if semantics.qualifies(TupleSet.singleton(t, catalog))
                )
                seeds = _gid_mask(qualifying, catalog)
            incomplete.seed(seeds, catalog)
        else:
            for tuple_set in initial:
                incomplete.add(tuple_set)
    if on_initialized is not None:
        on_initialized(incomplete, complete)

    iteration = 0
    try:
        # Line 5: loop until Incomplete is exhausted.
        while incomplete:
            iteration += 1
            result = get_next_result(
                database, anchor_name, incomplete, complete, scanner, statistics, semantics
            )
            # Lines 7-8: print the result and remember it in Complete — unless
            # a shared Complete shows another pass printed it already.
            covered = shared_complete and complete.contains_superset(
                result, anchor=result.tuple_from(anchor_name)
            )
            complete.add(result)
            if statistics is not None:
                statistics.results += 1
                statistics.tuple_reads = scanner.tuple_reads
                statistics.scan_passes = scanner.passes
            if on_iteration is not None:
                on_iteration(iteration, result, incomplete, complete)
            if covered:
                continue
            if statistics is not None:
                statistics.results_emitted += 1
            yield result
    finally:
        # Record store counters on every exit — exhaustion, an abandoned
        # generator (first-k retrieval) or an error — exactly once.
        if shared_complete:
            # A shared Complete store is recorded by its owner, once.
            record_store_statistics(statistics, ("incomplete", incomplete))
        else:
            record_store_statistics(
                statistics, ("incomplete", incomplete), ("complete", complete)
            )
