"""Streaming ingest: tuples arrive while results are being emitted.

The paper's guarantee is *incremental delivery on a static database*; this
workload exercises the next step towards a production system: the database
keeps growing while the full disjunction is being served.  Two pieces make
that cheap:

* **append-only catalog maintenance** —
  :meth:`~repro.relational.database.Database.add_tuple` extends the interned
  catalog's ids and bitmatrices in place, so ingesting N tuples performs
  exactly one initial catalog build (``Database.catalog_rebuilds``) instead
  of N rebuilds, and every tuple set interned before an arrival stays valid;
* **monotonicity of the full disjunction's support** — adding tuples can add
  new results and extend old ones, but a previously emitted set remains a
  join-consistent, connected answer over the data that existed when it was
  emitted.  The replay driver therefore emits each distinct result set the
  first time it appears and never retracts.

:func:`streaming_chain_workload` and :func:`streaming_star_workload` generate
a base database plus an arrival sequence; :func:`replay_stream` ingests the
arrivals batch by batch, recomputing the full disjunction after each batch
and yielding events as they happen.  The CLI exposes the
driver as ``repro stream``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple as TupleType,
    Union,
)

from repro.relational.database import Database
from repro.core.full_disjunction import full_disjunction_sets
from repro.core.incremental import FDStatistics
from repro.core.tupleset import TupleSet
from repro.workloads.generators import chain_database, star_database

class Arrival(NamedTuple):
    """One streamed tuple: target relation, values, and ranking metadata.

    ``importance`` and ``prob`` ride along so a replayed database is
    equivalent to one that never streamed (ranking functions read
    ``imp(t)``; approximate joins read ``prob(t)``).
    """

    relation_name: str
    values: TupleType[object, ...]
    importance: float = 0.0
    probability: float = 1.0


class Removal(NamedTuple):
    """One streamed deletion: the tuple labelled ``label`` leaves ``relation_name``.

    Applied through :meth:`~repro.relational.database.Database.remove_tuple`
    — an append-only catalog tombstone plus an epoch bump; previously emitted
    results containing the tuple are *retracted* from the stream.
    """

    relation_name: str
    label: str


class Update(NamedTuple):
    """One streamed in-place update: the tuple keeps its label, values change.

    Applied through :meth:`~repro.relational.database.Database.update_tuple`
    — downstream this is exactly a deletion of the old incarnation plus an
    arrival of the new one, in a single epoch bump.  ``importance`` /
    ``probability`` of ``None`` keep the old tuple's values.
    """

    relation_name: str
    label: str
    values: TupleType[object, ...]
    importance: Optional[float] = None
    probability: Optional[float] = None


#: Anything a stream batch may carry: an arrival (also as a plain
#: ``(relation, values)`` pair), a deletion, or an in-place update.
StreamOp = Union[Arrival, Removal, Update, tuple]


def _tuple_identity(t) -> tuple:
    """What makes a tuple "the same row" across recomputes.

    Importance and probability participate alongside the values: a
    score-only in-place update is still a mutation (rankings and
    approximate joins read those fields), so the result built from the old
    incarnation must not alias the one built from the new.
    """
    return (t.relation_name, t.label, t.values, t.importance, t.probability)


def result_key(tuple_set: TupleSet) -> frozenset:
    """The identity a result keeps across engine re-runs.

    The shared cross-recompute result identity: the streaming reference
    uses it to diff consecutive recomputes (retract vs emit) and the prefix
    cache's revalidation tail uses it to deduplicate a fresh run against a
    served prefix.  An in-place update (same label; new values, importance
    or probability) therefore retracts the old result and emits the new one
    instead of silently aliasing them.
    """
    return frozenset(_tuple_identity(t) for t in tuple_set)


#: Backwards-compatible private alias (pre-existing internal name).
_event_key = result_key


@dataclass
class StreamingWorkload:
    """A base database plus the tuples that will arrive while it is served."""

    database: Database
    arrivals: List[Arrival]

    def total_tuples(self) -> int:
        """Tuples in the fully ingested database."""
        return self.database.tuple_count() + len(self.arrivals)


def hold_back_arrivals(database: Database, fraction: float, interleave_seed: int = 0) -> StreamingWorkload:
    """Split ``database`` into a base prefix and an interleaved arrival stream.

    The last ``fraction`` of every relation's tuples (at least one per
    relation when possible, never all of them) becomes the arrival stream,
    interleaved round-robin across relations so consecutive arrivals hit
    different relations — the adversarial case for snapshot invalidation.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"arrival fraction must be in [0, 1), got {fraction}")
    base = Database()
    per_relation: List[List[Arrival]] = []
    for relation in database.relations:
        tuples = list(relation)
        # The epsilon guards against float dust in derived fractions
        # (1 - 4/5 is 0.19999…, whose truncation would hold back nothing).
        held = int(len(tuples) * fraction + 1e-9)
        if fraction > 0 and held == 0 and len(tuples) > 1:
            held = 1
        held = min(held, max(len(tuples) - 1, 0))
        kept = tuples[: len(tuples) - held]
        fresh = type(relation)(
            relation.name, relation.schema, label_prefix=relation._label_prefix
        )
        for t in kept:
            fresh.add(t.values, label=t.label, importance=t.importance,
                      probability=t.probability)
        base.add_relation(fresh)
        per_relation.append(
            [
                Arrival(relation.name, t.values, t.importance, t.probability)
                for t in tuples[len(tuples) - held:]
            ]
        )
    arrivals: List[Arrival] = []
    cursor = 0
    while any(per_relation):
        bucket = per_relation[cursor % len(per_relation)]
        if bucket:
            arrivals.append(bucket.pop(0))
        cursor += 1
    return StreamingWorkload(database=base, arrivals=arrivals)


def streaming_chain_workload(
    relations: int = 3,
    base_tuples: int = 4,
    arrivals: int = 6,
    domain_size: int = 3,
    null_rate: float = 0.1,
    seed: int = 0,
) -> StreamingWorkload:
    """A chain database whose last ``arrivals`` tuples arrive as a stream."""
    total = base_tuples + -(-arrivals // relations)  # ceil-divide the arrivals
    database = chain_database(
        relations=relations,
        tuples_per_relation=total,
        domain_size=domain_size,
        null_rate=null_rate,
        seed=seed,
    )
    workload = hold_back_arrivals(database, fraction=1.0 - base_tuples / total)
    workload.arrivals = workload.arrivals[:arrivals]
    return workload


def streaming_star_workload(
    spokes: int = 3,
    base_tuples: int = 3,
    arrivals: int = 6,
    hub_domain: int = 2,
    seed: int = 0,
) -> StreamingWorkload:
    """A star database whose last ``arrivals`` tuples arrive as a stream."""
    total = base_tuples + -(-arrivals // spokes)
    database = star_database(
        spokes=spokes,
        tuples_per_relation=total,
        hub_domain=hub_domain,
        seed=seed,
    )
    workload = hold_back_arrivals(database, fraction=1.0 - base_tuples / total)
    workload.arrivals = workload.arrivals[:arrivals]
    return workload


def inject_mutations(
    workload: StreamingWorkload,
    mutations: int,
    seed: int = 0,
    update_fraction: float = 0.5,
) -> List[StreamOp]:
    """Interleave deletions and in-place updates into an arrival stream.

    Picks ``mutations`` distinct *base* tuples (present before any arrival,
    so every target exists whenever its op fires), turns a ``seed``-chosen
    ``update_fraction`` of them into :class:`Update` ops — each non-null
    value gains a ``*`` suffix, a genuinely different row — and the rest
    into :class:`Removal` ops, then spreads the mutations evenly through a
    copy of ``workload.arrivals``.  The result is the mixed op list
    ``repro stream --mutations`` and the E12 benchmark replay.
    """
    if mutations < 0:
        raise ValueError(f"mutations must be non-negative, got {mutations}")
    targets = [
        (relation.name, t)
        for relation in workload.database.relations
        for t in relation
    ]
    if mutations > len(targets):
        raise ValueError(
            f"cannot mutate {mutations} tuples: the base database has "
            f"only {len(targets)}"
        )
    rng = random.Random(seed)
    chosen = rng.sample(targets, mutations)
    ops: List[StreamOp] = []
    for relation_name, t in chosen:
        if rng.random() < update_fraction:
            from repro.relational.nulls import is_null

            values = tuple(
                value if is_null(value) else f"{value}*" for value in t.values
            )
            ops.append(Update(relation_name, t.label, values))
        else:
            ops.append(Removal(relation_name, t.label))
    mixed: List[StreamOp] = list(workload.arrivals)
    # Spread the mutations evenly, never all bunched at either end.
    step = max(1, (len(mixed) + 1) // (mutations + 1)) if mutations else 1
    for index, op in enumerate(ops):
        mixed.insert(min((index + 1) * step + index, len(mixed)), op)
    return mixed


@dataclass
class IngestEvent:
    """A batch of stream operations (arrivals, deletions, updates) was applied."""

    applied: int
    total_applied: int


@dataclass
class ResultEvent:
    """A result set appeared (``kind="emit"``) or was withdrawn (``kind="retract"``).

    ``score`` carries the result's rank on ranked streams (``None`` on
    unranked ones).  A ``retract`` event names a previously emitted result
    that contained a deleted tuple; the *net* stream — emits minus retracts
    — always equals a full recompute on the current database.
    """

    tuple_set: TupleSet
    after_arrivals: int
    score: Optional[float] = None
    kind: str = "emit"


StreamEvent = Union[IngestEvent, ResultEvent]


@dataclass
class StreamSummary:
    """Final state of one :func:`replay_stream` run."""

    results: List[TupleSet] = field(default_factory=list)
    arrivals_applied: int = 0
    catalog_rebuilds: int = 0
    statistics: FDStatistics = field(default_factory=FDStatistics)


def apply_stream_op(database: Database, op: StreamOp):
    """Apply one stream operation to ``database`` (in-place catalog maintenance).

    Plain ``(relation, values, ...)`` tuples are accepted as arrivals; typed
    :class:`Removal` and :class:`Update` ops dispatch to the tombstoning
    mutation entry points.  Normalization goes through the storage codec —
    the same canonicalization the WAL and the wire handlers use, so every
    consumer of stream ops agrees on one op vocabulary.
    """
    from repro.storage.codec import normalize_stream_op

    op = normalize_stream_op(op)
    if isinstance(op, Removal):
        return database.remove_tuple(op.relation_name, op.label)
    if isinstance(op, Update):
        return database.update_tuple(
            op.relation_name,
            op.label,
            op.values,
            importance=op.importance,
            probability=op.probability,
        )
    return database.add_tuple(
        op.relation_name,
        op.values,
        importance=op.importance,
        probability=op.probability,
    )


def replay_stream(
    database: Database,
    arrivals: Sequence[StreamOp],
    batch_size: int = 1,
    summary: Optional[StreamSummary] = None,
    ranking=None,
) -> Iterator[StreamEvent]:
    """Serve the full disjunction while applying ``arrivals`` batch by batch.

    This is the recompute *reference* the delta maintainer is checked
    against: each batch of stream operations — arrivals, and with
    :class:`Removal` / :class:`Update` ops also deletions and in-place
    updates — is applied through the in-place catalog maintenance entry
    points, the full disjunction is recomputed, and the event stream is the
    diff against the previous recompute: a ``retract`` :class:`ResultEvent`
    for every previously emitted result that disappeared, then an ``emit``
    event for every new one.  Events interleave :class:`IngestEvent` and
    :class:`ResultEvent` in stream order, and the net emitted set always
    equals the current database's full disjunction.

    With a ``ranking`` (a monotonically c-determined
    :class:`~repro.core.ranking.RankingFunction`), each recomputation runs
    the ranked engine instead, and the batch's new results are emitted in
    canonical rank order — sorted by ``(-score, sort key)``, so rank ties
    land in a deterministic order the delta-maintained counterpart
    (:func:`repro.service.delta.incremental_replay_stream`) reproduces
    exactly.  ``ResultEvent.score`` carries each result's rank.

    Pass a :class:`StreamSummary` to collect the final (net) result list,
    the operation count, the engine statistics, and the number of catalog
    rebuilds the run performed — exactly one (the initial build) when the
    database's catalog was not built before the call.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if summary is None:
        summary = StreamSummary()
    if ranking is not None:
        ranking.require_monotonically_c_determined()
    rebuilds_before = database.catalog_rebuilds
    database.catalog()  # the single initial build
    # Maintained eagerly (not just on exhaustion) so a partially consumed
    # stream still reports the builds that already happened.
    summary.catalog_rebuilds = database.catalog_rebuilds - rebuilds_before

    #: key -> (tuple set, score) of every currently-standing emitted result,
    #: in emission order (dicts preserve insertion order).
    seen: "dict" = {}

    def recompute() -> List[TupleType[TupleSet, Optional[float]]]:
        if ranking is not None:
            from repro.core.priority import priority_incremental_fd

            return list(
                priority_incremental_fd(
                    database,
                    ranking,
                    statistics=summary.statistics,
                )
            )
        return [
            (tuple_set, None)
            for tuple_set in full_disjunction_sets(
                database,
                statistics=summary.statistics,
            )
        ]

    def emit(after_arrivals: int) -> Iterator[ResultEvent]:
        current = recompute()
        # Retract exactly the standing results that lost a member tuple to a
        # deletion or an update (score-only updates included).  A result
        # that merely became non-maximal under later *arrivals* stays, per
        # the monotone-emission contract: it remains a join-consistent,
        # connected answer over the data that existed when it was emitted —
        # and the delta maintainer keeps it for the same reason.
        live = {_tuple_identity(t) for t in database.tuples()}
        for key in [key for key in seen if not key <= live]:
            tuple_set, score = seen.pop(key)
            try:
                summary.results.remove(tuple_set)
            except ValueError:  # pragma: no cover - defensive
                pass
            yield ResultEvent(
                tuple_set=tuple_set,
                after_arrivals=after_arrivals,
                score=score,
                kind="retract",
            )
        fresh = [
            (tuple_set, score)
            for tuple_set, score in current
            if _event_key(tuple_set) not in seen
        ]
        if ranking is not None:
            # The engine emits in rank order already; re-sorting with the
            # sort key as tie-break canonicalises the order *within* equal
            # scores.
            from repro.core.ranking import canonical_rank_key

            fresh.sort(key=canonical_rank_key)
        for tuple_set, score in fresh:
            seen[_event_key(tuple_set)] = (tuple_set, score)
            summary.results.append(tuple_set)
            yield ResultEvent(
                tuple_set=tuple_set, after_arrivals=after_arrivals, score=score
            )

    yield from emit(after_arrivals=0)
    position = 0
    while position < len(arrivals):
        batch = arrivals[position : position + batch_size]
        for op in batch:
            apply_stream_op(database, op)
        position += len(batch)
        summary.arrivals_applied = position
        summary.catalog_rebuilds = database.catalog_rebuilds - rebuilds_before
        yield IngestEvent(applied=len(batch), total_applied=position)
        yield from emit(after_arrivals=position)
