"""The LRU result-prefix cache: identical queries share one computation.

Many concurrent clients asking the same first-k query should cost one engine
run, not one per client.  :class:`PrefixCache` keys each query by

``(database generation, engine, frozen options)``

and maps it to the shared :class:`~repro.service.session.ResultLog` of the
first client's run.  Later clients get cursors over the same log: results
already materialized are free, and the log's single generator extends the
prefix for whichever client asks furthest first.

**Invalidation contract.**  The cache never inspects tuple *values*; it
trusts the append-only catalog's bookkeeping.  :func:`database_generation`
folds the counters that, together, change whenever the answer stream could
change:

* ``Database.catalog_rebuilds`` — bumped by every full snapshot rebuild
  (relations added, compaction, or mutations behind the database's back);
* ``Database.epoch`` — bumped by every non-monotone mutation (a deletion or
  an in-place update) applied through the tombstoning entry points;
* the relation count and the live tuple count — ``Database.add_tuple``
  maintains the catalog *in place* (no rebuild), so streaming ingest is
  visible only through the tuple count.

A cached entry whose recorded generation differs from the database's
current generation is *suspect*, but not necessarily dead.

**Epoch revalidation.**  When the only thing separating an entry's
generation from the current one is deletion epochs — same rebuild counter,
same relations, and no tuple ids issued since the entry was created (no
arrivals, no updates) — the entry's results are checked against the
catalog's tombstone set: one ``AND`` of each interned result's member
bitmask against :attr:`Catalog.dead_mask
<repro.relational.catalog.Catalog.dead_mask>`.  A deletion never makes a
surviving result wrong (the database only shrank, so an old maximal set
stays join consistent, connected and maximal); it can only invalidate
results that *contain* a deleted tuple, or leave a prefix one result short
of where a fresh run would be.  So a log whose materialized prefix holds no
dead tuple is **revalidated**: re-keyed under the new generation and served
as-is, with pulls beyond the prefix transparently backed by a fresh
deduplicating engine run (attached lazily — an unaffected first-k session
rides through the deletion without recomputing anything).  Everything else
— appends, updates, rebuilds, or a prefix that lost a result — is dropped
lazily on lookup (counted in ``invalidations``), exactly as before.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Optional, Tuple as TupleType

from repro.core.incremental import FDStatistics
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import trace_span
from repro.relational.database import Database
from repro.service.session import QuerySession, ResultLog, make_result_source

#: Option keys that identify a query; anything else (statistics objects,
#: session names) is per-client and must not fragment the cache.
_KEY_OPTIONS = (
    "use_index",
    "block_size",
    "threshold",
    "rank_threshold",
    "k",
)


def database_generation(database: Database) -> TupleType[int, int, int, int]:
    """The invalidation token: ``(catalog_rebuilds, epoch, relations, tuples)``.

    Any structural change moves at least one component: appends move the
    live tuple count, deletions and in-place updates move ``epoch``,
    rebuild-triggering changes move ``catalog_rebuilds`` (and usually the
    others).  The catalog is settled first — tokens are defined over a
    *built* snapshot, so the initial (or any pending lazy) build is charged
    here rather than shifting the token under a key that was computed
    moments earlier.
    """
    database.catalog()
    return database.generation


def _query_key(database: Database, engine: str, options: dict, extra: Optional[str]):
    """A hashable identity for one query against one database generation.

    The database (and any untagged callables) participate as *objects*, not
    ``id()`` integers: the key tuple holds a strong reference, so a live
    entry can never alias a different database allocated at a recycled id.
    """
    parts = [
        ("db", database),
        ("generation", database_generation(database)),
        ("engine", engine),
    ]
    for key in _KEY_OPTIONS:
        if options.get(key) is not None:
            parts.append((key, options[key]))
    # Ranking / join functions are arbitrary callables.  A ``cache_tag``
    # *names* them: the caller asserts that equal tags mean equivalent
    # callables, so fresh-but-identical instances (a new ``MinJoin`` per
    # request, say) share the cache.  A ranking function may instead carry
    # its own stable identity (``RankingFunction.cache_key()`` — the spec
    # plus the determination bound ``c``), so ranked logs are keyed by
    # ``(generation, ranking, c)`` and fresh-but-equal ``MaxRanking``
    # instances share one computation.  Untagged, keyless callables
    # fragment by identity, which is always safe.
    if extra is not None:
        parts.append(("tag", extra))
    else:
        for key in ("ranking", "join_function"):
            value = options.get(key)
            if value is not None:
                identity = getattr(value, "cache_key", lambda: None)()
                parts.append((key, value if identity is None else identity))
    return tuple(parts)


class _Entry:
    """One cached query: its shared log plus the revalidation bookkeeping.

    ``ids_issued`` records the catalog's total id count (live and dead) at
    creation time: if it has not moved, no tuple was appended since — the
    precondition for treating a generation gap as "deletions only".
    """

    __slots__ = ("log", "ids_issued")

    def __init__(self, log: ResultLog, ids_issued: int):
        self.log = log
        self.ids_issued = ids_issued


_SEAL_REASON = (
    "the prefix was revalidated across a deletion epoch; results beyond the "
    "materialized prefix need a fresh run — reopen the query"
)

_RECOVERED_REASON = (
    "the prefix was recovered from a snapshot; results beyond the "
    "materialized prefix need a fresh run — reopen the query"
)


class PrefixCache:
    """An LRU of shared result logs, one per distinct live query.

    ``capacity`` bounds the number of retained logs; the least recently
    *opened* entry is evicted (and its generator closed).  Counters expose
    the serving behaviour: ``hits`` (a later client reused a log),
    ``misses`` (a fresh computation started), ``revalidations`` (an entry
    rode through a deletion epoch — see the module docstring),
    ``invalidations`` (an entry was dropped because the database moved to an
    incompatible generation), ``evictions`` (capacity pressure).
    """

    def __init__(
        self, capacity: int = 32, registry: Optional[MetricsRegistry] = None
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.revalidations = 0
        self.evictions = 0
        # Live series mirror the int counters so a scrape sees cache
        # behaviour without a ``stats`` round trip; children are resolved
        # once here so the serving path pays one ``inc()`` per event.
        registry = registry if registry is not None else get_registry()
        self._m_hits = registry.counter(
            "repro_cache_hits_total", "Prefix-cache lookups served from a live log."
        )
        self._m_misses = registry.counter(
            "repro_cache_misses_total", "Prefix-cache lookups that started a fresh run."
        )
        self._m_invalidations = registry.counter(
            "repro_cache_invalidations_total",
            "Cached logs dropped because the database moved generations.",
        )
        self._m_revalidations = registry.counter(
            "repro_cache_revalidations_total",
            "Cached prefixes revalidated across a deletion-only epoch.",
        )
        self._m_evictions = registry.counter(
            "repro_cache_evictions_total",
            "Cached logs evicted by LRU capacity pressure.",
        )
        self._m_entries = registry.gauge(
            "repro_cache_entries", "Live entries currently held by the prefix cache."
        )

    def __len__(self) -> int:
        return len(self._entries)

    def open(
        self,
        database: Database,
        engine: str = "fd",
        name: Optional[str] = None,
        cache_tag: Optional[str] = None,
        **options,
    ) -> QuerySession:
        """A session for this query — over the shared log when one is live.

        The returned session never owns the log (the cache does), so clients
        may close their sessions freely.  ``cache_tag`` names an otherwise
        unhashable option set (a ranking callable, say) so separate clients
        can share it deliberately.
        """
        span = trace_span("cache.open", "cache", engine=engine)
        key = _query_key(database, engine, options, cache_tag)
        entry = self._entries.get(key)
        if entry is not None and entry.log.closed:
            del self._entries[key]
            entry = None
        if entry is None:
            entry = self._revalidate_into(key, database)
        if entry is not None:
            if entry.log.sealed:
                # A revalidated prefix whose tail was never rebuilt: attach
                # the deduplicating fresh run now that a caller with the
                # query's options is here.  The run starts lazily, so a
                # client that stays inside the prefix never pays for it.
                entry.log.reopen_with(
                    self._tail_source(database, engine, dict(options), entry.log)
                )
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            span.annotate(outcome="hit")
            span.close()
            return QuerySession(entry.log, owns_log=False, name=name)
        self._drop_stale(database)
        statistics = options.pop("statistics", None) or FDStatistics()
        source = make_result_source(
            database, engine, statistics=statistics, **options
        )
        log = ResultLog(source, statistics=statistics)
        self._entries[key] = _Entry(log, database.catalog().tuple_count)
        self.misses += 1
        self._m_misses.inc()
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.log.close(
                "the shared result log was evicted from the prefix cache"
            )
            self.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))
        span.annotate(outcome="miss")
        span.close()
        return QuerySession(log, owns_log=False, name=name)

    # ------------------------------------------------------------------ #
    # durable state (storage-layer snapshot/restore hooks)
    # ------------------------------------------------------------------ #
    def entry_log(
        self,
        database: Database,
        engine: str = "fd",
        cache_tag: Optional[str] = None,
        **options,
    ) -> Optional[ResultLog]:
        """Peek at the live log cached for exactly this query, if any.

        A read-only probe: no hit/miss counters move, the LRU order is
        untouched.  The storage layer uses this to decide which materialized
        prefixes a snapshot can persist.
        """
        entry = self._entries.get(_query_key(database, engine, options, cache_tag))
        if entry is None or entry.log.closed:
            return None
        return entry.log

    def install(
        self,
        database: Database,
        engine: str = "fd",
        items: Iterable[object] = (),
        complete: bool = False,
        cache_tag: Optional[str] = None,
        **options,
    ) -> bool:
        """Install a recovered materialized prefix under the current generation.

        The storage layer's restore hook: ``items`` are the results a
        snapshot persisted for this query.  A ``complete`` prefix serves as
        a finished stream (cursors see exhaustion, no engine ever runs); an
        incomplete one is installed *sealed* — exactly the revalidated
        state — so the next :meth:`open` attaches a fresh deduplicating
        tail and clients inside the prefix recompute nothing.  Returns
        ``False`` when a live entry already holds the key.
        """
        key = _query_key(database, engine, options, cache_tag)
        existing = self._entries.get(key)
        if existing is not None:
            if not existing.log.closed:
                return False
            del self._entries[key]
        log = ResultLog.from_results(
            list(items),
            complete=complete,
            seal_reason=None if complete else _RECOVERED_REASON,
        )
        self._entries[key] = _Entry(log, database.catalog().tuple_count)
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.log.close(
                "the shared result log was evicted from the prefix cache"
            )
            self.evictions += 1
            self._m_evictions.inc()
        self._m_entries.set(len(self._entries))
        return True

    # ------------------------------------------------------------------ #
    # epoch revalidation
    # ------------------------------------------------------------------ #
    def _tail_source(
        self, database: Database, engine: str, options: dict, log: ResultLog
    ) -> Iterator[object]:
        """A fresh engine run that skips everything already in ``log``.

        The revalidated prefix is served as-is; this source transparently
        extends it with the post-deletion stream, deduplicated against the
        prefix, so a drained revalidated log converges to exactly the
        current database's full answer set.
        """
        options.pop("statistics", None)

        def tail():
            seen = {_prefix_key(item) for item in log.results}
            for item in make_result_source(
                database, engine, statistics=log.statistics, **options
            ):
                if _prefix_key(item) not in seen:
                    yield item

        return tail()

    def _revalidate_into(self, key: tuple, database: Database) -> Optional[_Entry]:
        """Move an epoch-compatible sibling entry under ``key``, if one survives.

        A sibling is the same query (same database object, engine and
        options) recorded under an older generation.  It revalidates when
        the generation gap is deletions-only and its materialized prefix
        holds no tombstoned tuple (:meth:`_eligible`); the entry is then
        re-keyed under the current generation with its source sealed —
        :meth:`open` attaches the fresh tail.
        """
        marker, current = key[0], key[1]
        catalog = database.catalog()
        for old_key in list(self._entries):
            if (
                old_key[0] != marker
                or old_key[1] == current
                or old_key[2:] != key[2:]
            ):
                continue
            entry = self._entries[old_key]
            if not self._eligible(entry, old_key[1][1], current[1], catalog):
                continue
            del self._entries[old_key]
            entry.log.seal(_SEAL_REASON)
            self._entries[key] = entry
            self.revalidations += 1
            self._m_revalidations.inc()
            return entry
        return None

    @staticmethod
    def _eligible(entry: _Entry, old_generation, new_generation, catalog) -> bool:
        """The revalidation test: deletions-only gap, prefix untouched.

        ``catalog_rebuilds`` and the relation count must match, the epoch
        must have advanced, no tuple id may have been issued since the entry
        was created (appends and updates both issue ids), and no
        materialized result may contain a tombstoned tuple — one bitmask
        ``AND`` per interned result.
        """
        old_rebuilds, old_epoch, old_relations, _ = old_generation
        new_rebuilds, new_epoch, new_relations, _ = new_generation
        if (old_rebuilds, old_relations) != (new_rebuilds, new_relations):
            return False
        if new_epoch <= old_epoch:
            return False
        if entry.ids_issued != catalog.tuple_count:
            return False
        if entry.log.closed:
            return False
        for item in entry.log.results:
            tuple_set = item[0] if isinstance(item, tuple) else item
            if tuple_set.contains_tombstoned():
                return False
        return True

    def revalidate(self, database: Database) -> dict:
        """After a non-monotone mutation: re-key untouched entries, drop the rest.

        The eager counterpart of the lazy lookup path, for callers that just
        *mutated* the database (the server's retract/update ops): every
        entry of ``database`` recorded under an older generation is either
        revalidated in place — its sessions keep serving the prefix, pulls
        beyond it fail fast with
        :class:`~repro.service.session.StaleResultLog` until the next
        :meth:`open` attaches a fresh tail — or closed.  Returns
        ``{"revalidated": n, "invalidated": m}``.
        """
        catalog = database.catalog()
        current = ("generation", database.generation)
        marker = ("db", database)
        revalidated = invalidated = 0
        with trace_span("cache.revalidate", "cache") as span:
            for old_key in list(self._entries):
                if old_key[0] != marker or old_key[1] == current:
                    continue
                entry = self._entries.pop(old_key)
                new_key = (old_key[0], current) + old_key[2:]
                if new_key not in self._entries and self._eligible(
                    entry, old_key[1][1], current[1], catalog
                ):
                    entry.log.seal(_SEAL_REASON)
                    self._entries[new_key] = entry
                    self.revalidations += 1
                    self._m_revalidations.inc()
                    revalidated += 1
                else:
                    entry.log.close(
                        "the database moved to a new generation; reopen the query"
                    )
                    self.invalidations += 1
                    self._m_invalidations.inc()
                    invalidated += 1
            self._m_entries.set(len(self._entries))
            span.annotate(revalidated=revalidated, invalidated=invalidated)
        return {"revalidated": revalidated, "invalidated": invalidated}

    def invalidate(self, database: Database) -> int:
        """Eagerly drop every entry for an older generation of ``database``.

        Lookups do this lazily; a caller that just *appended* to the
        database (the serving layer's ingest path) calls this so sessions
        still reading an old-generation log fail fast with
        :class:`~repro.service.session.StaleResultLog` instead of pulling
        from a generator that now observes a half-changed database.  (After
        a deletion, prefer :meth:`revalidate`, which preserves untouched
        prefixes.)  Returns the number of entries dropped.
        """
        return self._drop_stale(database)

    def _drop_stale(self, database: Database) -> int:
        """Drop every entry recorded against an older generation of ``database``.

        Entries for *other* databases are left to age out of the LRU
        normally.
        """
        marker = ("db", database)
        current = ("generation", database_generation(database))
        stale = [
            key
            for key in self._entries
            if key[0] == marker and key[1] != current
        ]
        for key in stale:
            self._entries.pop(key).log.close(
                "the database moved to a new generation; reopen the query"
            )
            self.invalidations += 1
            self._m_invalidations.inc()
        self._m_entries.set(len(self._entries))
        return len(stale)

    def clear(self) -> None:
        """Close and drop every entry."""
        for entry in self._entries.values():
            entry.log.close("the prefix cache was cleared")
        self._entries.clear()
        self._m_entries.set(0)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "revalidations": self.revalidations,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"PrefixCache(entries={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def _prefix_key(item: object) -> frozenset:
    """A log item's identity across engine runs (the shared result identity)."""
    from repro.workloads.streaming import result_key

    tuple_set = item[0] if isinstance(item, tuple) else item
    return result_key(tuple_set)
