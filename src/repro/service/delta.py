"""Incremental maintenance of the full disjunction under streaming ingest.

:func:`repro.workloads.streaming.replay_stream` serves arrivals by re-running
the whole engine after every batch and deduplicating — correct, but the
per-arrival cost is the cost of the full result.  This module replaces the
re-run with true delta maintenance, the ROADMAP's "the arrival's singleton is
the only new seed":

* the maintainer keeps one shared, indexed ``Complete`` store holding every
  result emitted so far (across the base run and all arrivals);
* each arrival ``t`` is appended through
  :meth:`~repro.relational.database.Database.add_tuple` (append-only catalog
  maintenance, no snapshot rebuild) and then a single ``IncrementalFD``
  pass runs (:func:`~repro.core.incremental.incremental_fd` with the shared
  store as its ``complete``), anchored at ``t``'s relation and seeded with
  the *singleton* ``{t}`` alone;
* candidates that do not contain ``t`` are pruned by the accumulated store
  (they are subsets of old results), so the loop's work is proportional to
  the new results the arrival creates, not to the result set already served.

Why this is complete: a set that is maximal after the arrival but does not
contain ``t`` was already maximal before it (the tuple universe only grew),
so every genuinely *new* result contains ``t`` — and since a tuple set holds
at most one tuple per relation, ``t`` is exactly the new result's anchor
tuple.  Seeding ``{t}`` therefore satisfies the initialization condition of
Remark 4.3 for the new results, while the store's subsumption check (Line 11)
stops the old ones from being re-derived.  The randomized equivalence tests
in ``tests/service/test_delta.py`` check the emitted stream against
``replay_stream``'s full recompute arrival by arrival.

Open sessions observe arrivals without restarting: the maintainer's
:class:`~repro.service.session.ResultLog` is *live* — delta results are
appended to it, and any cursor past the old end simply finds more results on
its next ``next(k)``.

**Ranked delta maintenance.**  With a monotonically c-determined ``ranking``
the maintainer runs on a live :class:`~repro.core.priority.PriorityState`
instead: the base run drains the ranked engine (results carry scores), and
each arrival ``t`` seeds the state's priority queues with only the
qualifying size-≤c connected subsets *containing* ``t``
(:func:`~repro.core.ranking.enumerate_connected_subsets_containing`) — the
exact queue members the Fig. 3 initialization is missing after the arrival.
Draining the queues re-derives only results anchored at the arrivals (the
shared ``Complete`` store suppresses everything older), and the batch's new
results are appended to the live log in canonical rank order.  The
completeness argument is the unranked one verbatim: a set maximal after the
arrival but not containing it was maximal before, so every genuinely new
result contains the arrival — and the arrival's subsets are exactly the
seeds pushed.

**Mutations.**  The monotone-emission contract ends here: deletions
(:meth:`StreamingFullDisjunction.remove`) and in-place updates
(:meth:`StreamingFullDisjunction.update`) are first-class.  A deleted tuple
is tombstoned in the catalog (no rebuild); every previously emitted result
containing it is *retracted* — dropped from the accumulated store so it
stops subsuming, and announced to open cursors as a
:class:`~repro.service.session.Retraction` log entry — and the results the
retraction unblocks are re-derived by maximally extending each retracted
result's surviving connected components (see :func:`_surviving_components`
for why that is complete).  An update is a deletion plus an arrival in one
batch.  The invariant, asserted by the randomized suites in
``tests/service/test_mutations.py``: after any interleaving of arrivals,
deletions and updates, the net event stream (emits minus retracts) equals a
full recompute on the final database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.core.full_disjunction import full_disjunction_sets
from repro.core import incremental
from repro.core.incremental import FDStatistics
from repro.core.kernels import tag_kernel
from repro.core.priority import PriorityState
from repro.core.ranking import canonical_rank_key
from repro.core.scanner import TupleScanner
from repro.core.store import CompleteStore
from repro.core.tupleset import TupleSet
from repro.obs.tracing import trace_span
from repro.relational.database import Database
from repro.relational.errors import SchemaError
from repro.service.session import QuerySession, ResultLog, Retraction
from repro.workloads.streaming import (
    Arrival,
    IngestEvent,
    Removal,
    ResultEvent,
    StreamEvent,
    StreamOp,
    StreamSummary,
    Update,
)


@dataclass
class DeltaSummary(StreamSummary):
    """A :class:`StreamSummary` with the per-batch delta work alongside.

    ``per_batch`` holds one record per applied batch: ``{"arrivals",
    "removals", "updates", "results_emitted", "results_retracted",
    "candidates_generated", "steps"}`` — the counters the streaming
    benchmark compares against ``replay_stream``'s full recompute to show
    the per-operation work is proportional to the delta.
    """

    per_batch: List[dict] = field(default_factory=list)

    def delta_work(self) -> int:
        """Total candidates generated across all delta passes."""
        return sum(batch["candidates_generated"] for batch in self.per_batch)

    def retractions(self) -> int:
        """Total results retracted across all batches."""
        return sum(batch.get("results_retracted", 0) for batch in self.per_batch)


def _surviving_components(result: TupleSet, dead: set, catalog) -> List[TupleSet]:
    """The connected JCC components of a retracted result's surviving members.

    Deleting tuples from a JCC set keeps it join consistent but may cut its
    relation graph; each connected piece is a JCC set again.  These
    components are exactly the seeds whose maximal extensions are the
    results a retraction can unblock: a result ``T`` of the post-deletion
    database that was not maximal before is a strict subset of some
    retracted result ``R`` (maximalising ``T`` in the old database must pass
    through a deleted tuple), ``T``'s members all survive, and ``T`` being
    connected lands it inside one component ``C`` of ``R``'s survivors —
    whence ``T ⊆ C`` with ``C`` JCC forces ``T = C`` by ``T``'s maximality.
    """
    survivors = sorted(t for t in result if t not in dead)
    components: List[TupleSet] = []
    while survivors:
        base = TupleSet(survivors, catalog=catalog)
        component = base.maximal_jcc_subset_with(survivors[0])
        components.append(component)
        survivors = [t for t in survivors if t not in component]
    return components


def _canonical_rank_order(ranked_items):
    """Reorder a rank-sorted stream so ties land in sort-key order.

    The ranked engine breaks score ties by queue insertion order; the
    serving contract sorts them by the tuple set's sort key instead, so the
    delta-maintained stream and the full-recompute reference are
    *identical*, not merely set-equal.  Scores are non-increasing on the
    input stream, so buffering one tie group at a time suffices — each
    group is released as soon as a strictly lower score arrives.
    """
    group: List = []
    group_score = None
    for item in ranked_items:
        if group and item[1] != group_score:
            group.sort(key=canonical_rank_key)
            yield from group
            group = []
        group_score = item[1]
        group.append(item)
    if group:
        group.sort(key=canonical_rank_key)
        yield from group


class StreamingFullDisjunction:
    """Maintain ``FD(R)`` incrementally while tuples arrive.

    The maintainer owns three pieces of state that survive across arrivals:
    the database (with its append-only catalog), the shared indexed
    ``Complete`` store mirroring every distinct result emitted so far, and a
    live :class:`ResultLog` that open sessions read.

    ``backend`` schedules the per-step work through its ``next_result``;
    the per-arrival loop is a single ``incremental_fd`` pass, so there is
    nothing to shard.

    With a ``ranking`` the maintained stream is the *ranked* full
    disjunction: log entries are ``(tuple set, score)`` pairs, the base run
    is rank-ordered, and every ingested batch appends its new results in
    canonical rank order (see the module docstring for the argument).
    """

    def __init__(
        self,
        database: Database,
        use_index: bool = True,
        backend=None,
        statistics: Optional[FDStatistics] = None,
        ranking=None,
    ):
        from repro.exec import resolve_backend

        self.database = database
        self.use_index = use_index
        self.ranking = ranking
        self.statistics = statistics if statistics is not None else FDStatistics()
        tag_kernel(self.statistics)
        self._backend = resolve_backend(backend)
        if ranking is not None:
            # The live queue state *is* the engine: its store of printed
            # results doubles as the maintainer's accumulated result mirror.
            self._state = PriorityState(
                database,
                ranking,
                use_index=use_index,
                statistics=self.statistics,
                backend=self._backend,
            )
            self._store = self._state.complete
        else:
            self._state = None
            self._store = CompleteStore(anchor_relation=None, use_index=use_index)
        self._log = ResultLog(source=self._base_results(), live=True)
        self._primed = False
        self.arrivals_applied = 0
        #: Deletions + effective in-place updates applied so far.
        self.mutations_applied = 0
        #: Rank of every live ranked result (for scoring retraction events).
        self._scores: "dict" = {}

    @property
    def ranked(self) -> bool:
        """Whether log entries are ``(tuple set, score)`` pairs."""
        return self.ranking is not None

    # ------------------------------------------------------------------ #
    # the base run
    # ------------------------------------------------------------------ #
    def _base_results(self) -> Iterator[object]:
        """The initial database's full disjunction, mirrored into the store."""
        if self._state is not None:
            # The ranked engine mirrors into its own store of printed
            # results (= self._store) as it produces.  Canonicalising rank ties
            # keeps the log byte-identical to the recompute reference
            # stream; buffering is per tie group, so first-k stays
            # incremental.
            for item in _canonical_rank_order(self._state.results()):
                self._scores[item[0]] = item[1]
                yield item
            return
        for result in full_disjunction_sets(
            self.database,
            use_index=self.use_index,
            statistics=self.statistics,
            backend=self._backend,
        ):
            self._store.add(result)
            yield result

    def prime(self) -> int:
        """Drain the base run (must happen before the first ingest).

        Until the store mirrors the *complete* base result set, subsumption
        cannot distinguish "new" from "not yet derived", so delta passes wait
        on this.  Sessions may lazily pull first-k results beforehand; primes
        are idempotent.
        """
        with trace_span("delta.prime", "delta"):
            self._log.exhaust_source()
        self._primed = True
        if self._state is not None:
            # Flush the base run's store counters; record_statistics is
            # delta-safe, so later flushes charge only their own growth.
            self._state.record_statistics()
        return len(self._log)

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def session(self, name: Optional[str] = None) -> QuerySession:
        """A cursor over the live result log (shared, not owned)."""
        return QuerySession(self._log, owns_log=False, name=name)

    @property
    def results(self) -> List[object]:
        """The *net* results standing so far (emits minus retractions), in order.

        Tuple sets on unranked streams; ``(tuple set, score)`` pairs on
        ranked ones.  The raw event stream — including
        :class:`~repro.service.session.Retraction` markers — is what
        cursors over :attr:`log` read.
        """
        live: List[object] = []
        for item in self._log.results:
            if isinstance(item, Retraction):
                try:
                    live.remove(item.item)
                except ValueError:  # pragma: no cover - defensive
                    pass
            else:
                live.append(item)
        return live

    @property
    def log(self) -> ResultLog:
        return self._log

    def close(self) -> None:
        """End the stream gracefully: open sessions see a completed log."""
        self._log.finish()
        if self._state is not None:
            self._state.record_statistics()

    # ------------------------------------------------------------------ #
    # durable state (storage-layer snapshot/restore hooks)
    # ------------------------------------------------------------------ #
    def durable_log(self) -> Optional[dict]:
        """Serialize the maintainer's emitted stream for a snapshot.

        Results are named by sorted catalog gid lists — gids are stable
        across :meth:`Database.restore_state
        <repro.relational.database.Database.restore_state>` by construction,
        and tombstoned members stay addressable via ``tuple_at``.  The
        accumulated ``Complete`` store is serialized *separately* from the
        log, in insertion order: the store can legitimately hold re-derived
        subsets that were never emitted (the "covered" branch of a delta
        pass), and subsumption after recovery must see exactly what an
        uninterrupted run would.

        Returns ``None`` for a fresh maintainer (nothing pulled, nothing
        ingested): the restored side then simply bootstraps its own base
        run, which is cheaper than forcing a full prime here.  A partially
        pulled base generator cannot be serialized mid-flight, so any other
        state is primed first.
        """
        if self._state is not None:
            raise ValueError(
                "ranked maintainer state (live priority queues) is not "
                "persistable; snapshot the unranked maintainer only"
            )
        if not self._primed and not self._log.results:
            return None
        self.prime()
        catalog = self.database.catalog()

        def gids(tuple_set) -> List[int]:
            return sorted(catalog.id_of(t) for t in tuple_set)

        log_entries = []
        for item in self._log.results:
            if isinstance(item, Retraction):
                log_entries.append({"retract": True, "gids": gids(item.tuple_set)})
            else:
                log_entries.append({"gids": gids(item)})
        return {
            "log": log_entries,
            "store": [gids(tuple_set) for tuple_set in self._store],
            "arrivals_applied": self.arrivals_applied,
            "mutations_applied": self.mutations_applied,
        }

    def restore_durable_log(self, payload: Optional[dict]) -> None:
        """Rebuild the emitted stream and store from :meth:`durable_log`.

        Must run on a maintainer that has not produced anything yet; the
        database underneath must already be the restored snapshot database
        (gids resolve against its catalog).  ``None`` restores the fresh
        state — the base run stays lazy.  After restore the maintainer is
        primed: new sessions replay the recovered stream byte for byte and
        ingest continues from exactly where the snapshot left off.
        """
        if self._state is not None:
            raise ValueError("ranked maintainer state is not restorable")
        if self._primed or self._log.results:
            raise ValueError(
                "cannot restore into a maintainer that has already emitted"
            )
        if payload is None:
            return
        catalog = self.database.catalog()

        def tuple_set(gids: Sequence[int]) -> TupleSet:
            return TupleSet(
                [catalog.tuple_at(gid) for gid in gids], catalog=catalog
            )

        items: List[object] = []
        for entry in payload["log"]:
            members = tuple_set(entry["gids"])
            items.append(Retraction(members) if entry.get("retract") else members)
        replaced = self._log
        self._log = ResultLog.from_results(items, live=True)
        replaced.close("replaced by restored durable state")
        for gids in payload["store"]:
            self._store.add(tuple_set(gids))
        self.arrivals_applied = payload.get("arrivals_applied", 0)
        self.mutations_applied = payload.get("mutations_applied", 0)
        self._primed = True

    # ------------------------------------------------------------------ #
    # ingest / retract / update
    # ------------------------------------------------------------------ #
    def _record(self, counters, **counts) -> dict:
        """One batch record: op counts plus the work charged since ``counters``."""
        candidates_before, steps_before = counters
        record = {
            "arrivals": 0,
            "removals": 0,
            "updates": 0,
            "results_emitted": 0,
            "results_retracted": 0,
            "candidates_generated": (
                self.statistics.candidates_generated - candidates_before
            ),
            "steps": self.statistics.results - steps_before,
        }
        record.update(counts)
        return record

    def _counters(self):
        return (self.statistics.candidates_generated, self.statistics.results)

    def ingest(self, arrivals: Sequence[Arrival]) -> dict:
        """Apply one batch of arrivals and emit the delta.

        All tuples are appended first (each an O(s) in-place catalog
        extension), then one delta pass runs per distinct target relation,
        seeded with that relation's new singletons.  Returns the batch
        record also appended to summaries: ops applied, results emitted and
        retracted, candidates generated, ``GetNextResult`` steps taken.
        """
        if not self._primed:
            self.prime()
        # Normalise and validate the whole batch *before* mutating anything:
        # a bad arrival must not leave earlier ones applied to the database
        # with their delta passes never run (results silently missing).
        arrivals = [Arrival(*arrival) for arrival in arrivals]
        for arrival in arrivals:
            relation = self.database.relation(arrival.relation_name)
            expected = len(relation.schema.attributes)
            got = len(tuple(arrival.values))
            if got != expected:
                raise SchemaError(
                    f"arrival for {arrival.relation_name!r} has {got} values, "
                    f"schema has {expected} attributes"
                )
        counters = self._counters()
        with trace_span("delta.ingest", "delta", arrivals=len(arrivals)):
            fresh: list = []
            for arrival in arrivals:
                fresh.append(
                    self.database.add_tuple(
                        arrival.relation_name,
                        arrival.values,
                        importance=arrival.importance,
                        probability=arrival.probability,
                    )
                )
            self.arrivals_applied += len(arrivals)
            emitted = self._emit_arrival_delta(fresh)
        return self._record(
            counters, arrivals=len(arrivals), results_emitted=emitted
        )

    def remove(self, removals: Sequence[Removal]) -> dict:
        """Apply one batch of deletions: retract, then re-derive the unblocked.

        Every tuple is tombstoned through :meth:`Database.remove_tuple
        <repro.relational.database.Database.remove_tuple>` (no catalog
        rebuild, one epoch bump per deletion); every previously emitted
        result containing a dead tuple is *retracted* — a
        :class:`~repro.service.session.Retraction` marker is appended to the
        live log, so open cursors observe the withdrawal in stream order —
        and the results those retractions unblock (maximal extensions of the
        retracted results' surviving components) are derived and emitted.
        The net stream after the batch equals a full recompute on the
        post-deletion database.
        """
        if not self._primed:
            self.prime()
        removals = [Removal(*removal) for removal in removals]
        targets = set()
        for removal in removals:
            relation = self.database.relation(removal.relation_name)
            relation.tuple_by_label(removal.label)  # raises on unknown labels
            key = (removal.relation_name, removal.label)
            if key in targets:
                raise ValueError(
                    f"duplicate removal of {removal.label!r} from "
                    f"{removal.relation_name!r} in one batch"
                )
            targets.add(key)
        counters = self._counters()
        with trace_span("delta.retract", "delta", removals=len(removals)):
            dead = [
                self.database.remove_tuple(removal.relation_name, removal.label)
                for removal in removals
            ]
            self.mutations_applied += len(removals)
            retracted, new_items = self._retract_and_rederive(dead)
            if self._state is not None:
                new_items.sort(key=canonical_rank_key)
            self._append_results(new_items)
        return self._record(
            counters,
            removals=len(removals),
            results_emitted=len(new_items),
            results_retracted=retracted,
        )

    def update(self, updates: Sequence[Update]) -> dict:
        """Apply one batch of in-place updates (tombstone + arrival, one batch).

        Each update retracts every result containing the old incarnation and
        re-derives what those retractions unblock, then the fresh
        incarnations run the ordinary arrival delta — all inside one batch
        record, so the net stream equals a full recompute on the updated
        database.  Updates that change nothing are skipped entirely (no
        epoch bump, no events).
        """
        if not self._primed:
            self.prime()
        updates = [Update(*update) for update in updates]
        targets = set()
        effective: list = []
        for update in updates:
            # Validation and no-op detection live on the database
            # (``resolve_update``), so the maintainer can never disagree
            # with ``update_tuple`` about what counts as a change.
            resolved = self.database.resolve_update(
                update.relation_name,
                update.label,
                update.values,
                importance=update.importance,
                probability=update.probability,
            )
            key = (update.relation_name, update.label)
            if key in targets:
                raise ValueError(
                    f"duplicate update of {update.label!r} in "
                    f"{update.relation_name!r} in one batch"
                )
            targets.add(key)
            if resolved is None:
                continue  # a no-op: nothing to retract, nothing to emit
            effective.append((update, resolved[0]))
        counters = self._counters()
        with trace_span("delta.update", "delta", updates=len(effective)):
            dead: list = []
            fresh: list = []
            for update, old in effective:
                fresh.append(
                    self.database.update_tuple(
                        update.relation_name,
                        update.label,
                        tuple(update.values),
                        importance=update.importance,
                        probability=update.probability,
                    )
                )
                dead.append(old)
            self.mutations_applied += len(effective)
            retracted, rederived = self._retract_and_rederive(dead)
            if self._state is not None:
                # One canonical rank order across everything the batch
                # created: the re-derived results and the drained arrival
                # delta together, exactly as a full ranked recompute would
                # order them.
                self._state.ingest(fresh)
                drained = self._state.drain_new()
                self._state.record_statistics()
                combined = rederived + drained
                combined.sort(key=canonical_rank_key)
                self._append_results(combined)
                emitted = len(combined)
            else:
                self._append_results(rederived)
                emitted = len(rederived) + self._emit_arrival_delta(fresh)
        return self._record(
            counters,
            # Count the updates that took effect, consistently with
            # ``mutations_applied`` (no-ops are not mutations).
            updates=len(effective),
            results_emitted=emitted,
            results_retracted=retracted,
        )

    def apply(self, ops: Sequence[StreamOp]) -> dict:
        """Apply one mixed batch of stream operations, preserving their order.

        Consecutive runs of the same op kind (arrival / removal / update)
        are dispatched together through :meth:`ingest` / :meth:`remove` /
        :meth:`update`; the returned record sums the sub-batches.
        """
        record = self._record(self._counters())
        group: list = []
        kind: Optional[str] = None

        def flush():
            if not group:
                return
            if kind == "remove":
                sub = self.remove(group)
            elif kind == "update":
                sub = self.update(group)
            else:
                sub = self.ingest(group)
            for key, value in sub.items():
                record[key] = record.get(key, 0) + value
            del group[:]

        for op in ops:
            if isinstance(op, Removal):
                op_kind = "remove"
            elif isinstance(op, Update):
                op_kind = "update"
            else:
                op_kind = "ingest"
            if op_kind != kind:
                flush()
                kind = op_kind
            group.append(op)
        flush()
        return record

    def _emit_arrival_delta(self, fresh) -> int:
        """The arrival delta: seed the engine with the fresh tuples, emit."""
        if self._state is not None:
            self._state.ingest(fresh)
            new_items = self._state.drain_new()
            self._append_results(new_items)
            self._state.record_statistics()
            return len(new_items)
        catalog = self.database.catalog()
        by_relation: "dict[str, list]" = {}
        for t in fresh:
            by_relation.setdefault(t.relation_name, []).append(t)
        emitted = 0
        for relation_name, fresh_tuples in by_relation.items():
            # One IncrementalFD pass per target relation, seeded with the
            # arrivals' singletons and run against the accumulated store:
            # every new maximal set holding a fresh tuple is produced (its
            # anchor tuple is the fresh tuple), every candidate that is a
            # subset of an old result is pruned at Line 11, and a re-derived
            # old result is stored but not emitted (the shared-Complete rule).
            pass_statistics = FDStatistics()
            for result in incremental.incremental_fd(
                self.database,
                relation_name,
                use_index=self.use_index,
                initial=[TupleSet.singleton(t, catalog=catalog) for t in fresh_tuples],
                statistics=pass_statistics,
                complete=self._store,
                backend=self._backend,
            ):
                self._log.append(result)
                emitted += 1
            self.statistics.merge(pass_statistics)
        return emitted

    def _retract_and_rederive(self, dead_tuples) -> "tuple":
        """Retract results containing dead tuples; derive what they unblocked.

        Retraction markers are appended to the live log immediately (in the
        retracted results' original emission order).  The unblocked results
        — the maximal extensions of each retracted result's surviving
        components that the accumulated store does not subsume — are
        *returned*, not appended: the caller decides their order (canonical
        rank order on ranked streams, derivation order otherwise).  Returns
        ``(retracted count, new log items)``.
        """
        catalog = self.database.catalog()
        dead = set(dead_tuples)
        if not dead:
            return 0, []
        if self._state is not None:
            retracted = self._state.retract(dead_tuples)
        else:
            retracted = self._store.retract_containing(dead, catalog=catalog)
        for result in retracted:
            if self._state is not None:
                score = self._scores.pop(result, None)
                self._log.append(Retraction((result, score)))
            else:
                self._log.append(Retraction(result))
        stats = FDStatistics()
        scanner = TupleScanner(self.database)
        new_items: list = []
        for result in retracted:
            for component in _surviving_components(result, dead, catalog):
                extended = incremental.maximally_extend(component, scanner, stats)
                anchor = min(extended)
                if self._store.contains_superset(extended, anchor=anchor):
                    continue
                if self._state is not None:
                    self._state.store(extended)
                else:
                    self._store.add(extended)
                stats.results += 1
                stats.results_emitted += 1
                if self._state is not None:
                    new_items.append((extended, float(self.ranking(extended))))
                else:
                    new_items.append(extended)
        stats.tuple_reads += scanner.tuple_reads
        stats.scan_passes += scanner.passes
        self.statistics.merge(stats)
        return len(retracted), new_items

    def _append_results(self, items) -> None:
        """Append freshly derived results to the live log (scores recorded)."""
        for item in items:
            self._log.append(item)
            if self._state is not None:
                self._scores[item[0]] = item[1]


def incremental_replay_stream(
    database: Database,
    arrivals: Sequence[StreamOp],
    batch_size: int = 1,
    use_index: bool = True,
    backend=None,
    summary: Optional[DeltaSummary] = None,
    ranking=None,
) -> Iterator[StreamEvent]:
    """Drop-in, delta-maintained counterpart of :func:`replay_stream`.

    Emits the same event stream shape (:class:`IngestEvent` /
    :class:`ResultEvent`) and fills the same summary fields, but each batch
    costs one seeded delta pass per touched relation — and, for
    :class:`~repro.workloads.streaming.Removal` /
    :class:`~repro.workloads.streaming.Update` ops, one retraction sweep
    plus component re-derivations — instead of a full engine re-run.  The
    *net* emitted set after any number of operations matches
    ``replay_stream`` exactly (order within a batch may differ — the full
    re-run interleaves passes differently); the equivalence tests assert
    this batch by batch.  Deletions surface as ``kind="retract"`` events
    naming the withdrawn results, mirroring the reference's recompute diff.

    With a ``ranking``, the delta counterpart of the ranked recompute:
    events carry scores, the base stream is rank-ordered, and each batch's
    new results are emitted in the same canonical ``(-score, sort key)``
    order ``replay_stream(ranking=...)`` uses — the two ranked event
    streams are *identical*, not merely set-equal.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if summary is None:
        summary = DeltaSummary()
    rebuilds_before = database.catalog_rebuilds
    maintainer = StreamingFullDisjunction(
        database,
        use_index=use_index,
        backend=backend,
        statistics=summary.statistics,
        ranking=ranking,
    )
    cursor = maintainer.session(name="replay")
    maintainer.prime()
    summary.catalog_rebuilds = database.catalog_rebuilds - rebuilds_before

    def emit(after_arrivals: int) -> Iterator[ResultEvent]:
        while True:
            batch = cursor.next(64)
            if not batch:
                return
            for item in batch:
                if isinstance(item, Retraction):
                    tuple_set = item.tuple_set
                    try:
                        summary.results.remove(tuple_set)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    yield ResultEvent(
                        tuple_set=tuple_set,
                        after_arrivals=after_arrivals,
                        score=item.score,
                        kind="retract",
                    )
                    continue
                if maintainer.ranked:
                    tuple_set, score = item
                else:
                    tuple_set, score = item, None
                summary.results.append(tuple_set)
                yield ResultEvent(
                    tuple_set=tuple_set,
                    after_arrivals=after_arrivals,
                    score=score,
                )

    yield from emit(after_arrivals=0)
    position = 0
    while position < len(arrivals):
        batch = arrivals[position : position + batch_size]
        record = maintainer.apply(batch)
        position += len(batch)
        summary.arrivals_applied = position
        summary.catalog_rebuilds = database.catalog_rebuilds - rebuilds_before
        summary.per_batch.append(record)
        yield IngestEvent(applied=len(batch), total_applied=position)
        yield from emit(after_arrivals=position)
