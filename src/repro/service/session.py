"""Resumable first-k query sessions over any full-disjunction driver.

``IncrementalFD`` exists so a client can ask for the first ``k`` answers and
come back later for more (Theorem 4.10).  The drivers already *are* lazy
generators, but a bare generator is a poor serving primitive: it can't be
peeked without consuming, can't be shared between clients, and abandoning it
throws away the Complete/Incomplete state it built.

Two classes split the concern:

* :class:`ResultLog` — the materialized, append-only prefix of one query's
  answer stream plus the live generator that extends it.  The log *is* the
  session-survival snapshot: the generator's closure keeps the engine's
  ``Complete``/``Incomplete`` stores alive between pulls, and the log keeps
  every emitted answer, so any number of cursors can replay or continue the
  stream without recomputing a single ``GetNextResult`` step.
* :class:`QuerySession` — a cursor over a log: ``next(k)``, ``peek()``,
  ``close()``, ``fork()``.  Sessions are cheap; the log is where the work
  lives.  A session pauses by simply not being asked for more.

:func:`open_session` builds the generator for any of the four engines
(:data:`ENGINES`) and hands back an owning session.  The prefix cache
(:mod:`repro.service.cache`) and the streaming maintainer
(:mod:`repro.service.delta`) build their sessions over shared logs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.core.incremental import EXACT, FDStatistics
from repro.relational.database import Database

#: The engines a session can wrap; each maps to a lazy result generator.
ENGINES = ("fd", "priority", "approx", "ranked_approx")


def _fd_source(database: Database, options: dict) -> Iterator[object]:
    from repro.core.full_disjunction import full_disjunction_sets

    return full_disjunction_sets(
        database,
        use_index=options.get("use_index", False),
        block_size=options.get("block_size"),
        statistics=options.get("statistics"),
    )


def _priority_source(
    database: Database, options: dict, semantics=EXACT
) -> Iterator[object]:
    from repro.core.priority import priority_incremental_fd

    ranking = options.get("ranking")
    if ranking is None:
        raise ValueError("the 'priority' engine requires a ranking= option")
    return priority_incremental_fd(
        database,
        ranking,
        k=options.get("k"),
        threshold=options.get("rank_threshold"),
        use_index=options.get("use_index", False),
        statistics=options.get("statistics"),
        semantics=semantics,
    )


def _approx_source(database: Database, options: dict) -> Iterator[object]:
    from repro.core.approx import approx_full_disjunction_sets

    join_function = options.get("join_function")
    if join_function is None:
        raise ValueError("the 'approx' engine requires a join_function= option")
    return approx_full_disjunction_sets(
        database,
        join_function,
        options.get("threshold", 1.0),
        use_index=options.get("use_index", False),
        statistics=options.get("statistics"),
    )


def _ranked_approx_source(database: Database, options: dict) -> Iterator[object]:
    """The 'priority' engine under the ``(A, τ)`` semantics."""
    from repro.core.approx import ApproxSemantics

    join_function = options.get("join_function")
    if join_function is None or options.get("ranking") is None:
        raise ValueError(
            "the 'ranked_approx' engine requires join_function= and ranking= options"
        )
    semantics = ApproxSemantics(join_function, options.get("threshold", 1.0))
    return _priority_source(database, options, semantics)


class StaleResultLog(RuntimeError):
    """Raised when a cursor needs results from an invalidated log.

    The materialized prefix stays readable; only pulls *beyond* it fail.
    Serving clients treat this as "reopen the query" — the database moved to
    a new generation, or the cache evicted the shared computation.
    """


@dataclass(frozen=True)
class Retraction:
    """A log entry announcing that an earlier result no longer holds.

    The streaming maintainer appends one per previously-emitted result that
    contained a deleted tuple, so open cursors observe the retraction in
    stream order instead of silently serving a stale answer.  ``item`` is
    the retracted log entry exactly as it was first appended — a tuple set,
    or a ``(tuple set, score)`` pair on ranked streams.
    """

    item: object

    @property
    def tuple_set(self):
        """The retracted result's tuple set (score stripped on ranked streams)."""
        return self.item[0] if isinstance(self.item, tuple) else self.item

    @property
    def score(self) -> Optional[float]:
        """The retracted result's rank, on ranked streams (else ``None``)."""
        return self.item[1] if isinstance(self.item, tuple) else None


_SOURCES: Dict[str, Callable[[Database, dict], Iterator[object]]] = {
    "fd": _fd_source,
    "priority": _priority_source,
    "approx": _approx_source,
    "ranked_approx": _ranked_approx_source,
}


def make_result_source(
    database: Database, engine: str = "fd", **options
) -> Iterator[object]:
    """The lazy result generator of one engine run (see :data:`ENGINES`)."""
    try:
        builder = _SOURCES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        ) from None
    return builder(database, options)


class ResultLog:
    """The append-only materialized prefix of one query's answer stream.

    A log has two faces: a list of already-produced results (``results``) and
    an optional *source* generator that can extend the list on demand
    (:meth:`ensure`).  Once the source is exhausted — or :meth:`finish` /
    :meth:`close` is called — the log is complete and serves purely from
    memory.

    Push-mode logs (``source=None``) are fed through :meth:`append` by an
    external producer; the streaming maintainer uses this to surface new
    delta results to open sessions without restarting them.

    A log ends in one of two ways.  :meth:`finish` is the *graceful* end —
    the stream genuinely has no more results, and cursors that reach the end
    report exhaustion.  :meth:`close` is *invalidation* — the computation was
    abandoned (cache eviction, a database generation change) while results
    may still have been pending; cursors can read everything already
    materialized, but asking beyond it raises :class:`StaleResultLog` rather
    than silently passing a truncated stream off as complete.
    """

    def __init__(
        self,
        source: Optional[Iterator[object]] = None,
        statistics: Optional[FDStatistics] = None,
        live: bool = False,
    ):
        self.results: List[object] = []
        self.statistics = statistics
        self._source = source
        # ``live`` logs (and push-mode logs, source=None) stay incomplete
        # until finish(): the producer, not the log, knows when the stream
        # is over.  A plain generator-backed log completes when its source
        # is exhausted.
        self._live = live or source is None
        self._complete = False
        self._closed = False
        self._invalidated_because: Optional[str] = None
        #: Results pulled from the source (cache hits serve the rest).
        self.pulled = 0

    @classmethod
    def from_results(
        cls,
        items: Iterable[object],
        complete: bool = False,
        seal_reason: Optional[str] = None,
        live: bool = False,
    ) -> "ResultLog":
        """Reconstruct a log from persisted results (storage-layer restore).

        Three shapes cover every recovered log:

        * ``complete=True`` — the stream had been drained; cursors see a
          finished prefix and never touch an engine (the cache's
          "complete, serves from memory" state: complete but *not* closed).
        * ``seal_reason=...`` — a materialized prefix whose tail must be
          recomputed on the next open, exactly the state
          :meth:`seal`/:meth:`reopen_with` produce.
        * ``live=True`` — a push-mode producer (the delta maintainer) will
          keep appending; the log completes only on :meth:`finish`.

        None of these states is reachable through the constructor alone,
        which is why restore goes through this classmethod.
        """
        log = cls()
        log.results.extend(items)
        log._live = live
        if complete:
            log._complete = True
        elif seal_reason is not None and not live:
            log._invalidated_because = seal_reason
        return log

    @property
    def complete(self) -> bool:
        """True when no further results will ever be appended."""
        return self._complete

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self.results)

    def ensure(self, count: int) -> int:
        """Pull from the source until ``count`` results exist (or it dries up).

        Returns the materialized length.  Pulls one result per loop so a
        cooperative caller can interleave other work between calls.  Asking
        for results beyond the materialized prefix of an *invalidated* log
        raises :class:`StaleResultLog` — the pending tail was abandoned, and
        pretending the stream ended here would hand the caller a silently
        truncated answer set.
        """
        source = self._source
        if source is not None:
            while len(self.results) < count:
                try:
                    item = next(source)
                except StopIteration:
                    # The source genuinely ran dry: a plain log is complete;
                    # a live log stays open for its producer's appends.
                    self._settle()
                    if not self._live:
                        self._complete = True
                    break
                self.results.append(item)
                self.pulled += 1
        elif (
            count > len(self.results)
            and not self._complete
            and self._invalidated_because is not None
        ):
            raise StaleResultLog(self._invalidated_because)
        return len(self.results)

    def append(self, item: object) -> None:
        """Push one result produced outside the source (streaming delta)."""
        if self._closed:
            raise RuntimeError("cannot append to a closed ResultLog")
        if self._source is not None:
            raise RuntimeError("cannot append while a source generator is active")
        self.results.append(item)

    def exhaust_source(self) -> int:
        """Pull the source dry (the streaming maintainer's base drain)."""
        while self._source is not None:
            before = len(self.results)
            if self.ensure(before + 64) == before:
                break
        return len(self.results)

    @property
    def sealed(self) -> bool:
        """True when the log is a revalidated prefix awaiting a new source.

        Sealing (unlike closing) keeps the log *servable*: the materialized
        prefix is still valid under the current database generation, pulls
        beyond it raise :class:`StaleResultLog` until a caller that knows the
        query's options attaches a recomputation tail via
        :meth:`reopen_with`.
        """
        return (
            self._source is None
            and not self._complete
            and not self._closed
            and self._invalidated_because is not None
        )

    def seal(self, reason: str) -> None:
        """Epoch revalidation: drop the (tainted) source, keep serving the prefix.

        After a deletion, a generator mid-stream observes a mutated database
        and cannot be pulled further — but a prefix whose results contain no
        deleted tuple is still exactly valid.  Sealing closes the source and
        records ``reason`` for pulls beyond the prefix, while leaving the log
        open so the prefix cache can re-key it under the new generation and
        later attach a fresh tail (:meth:`reopen_with`).  A complete log has
        nothing to seal.
        """
        self._settle()
        if not self._complete:
            self._invalidated_because = reason

    def reopen_with(self, source: Iterator[object]) -> None:
        """Attach a fresh source to a sealed log (the revalidation tail).

        The source must yield only results *not* already in the materialized
        prefix (the cache builds it as a deduplicating re-run); from the
        cursor's point of view the log simply continues.
        """
        if self._closed:
            raise RuntimeError("cannot reopen a closed ResultLog")
        if self._source is not None:
            raise RuntimeError("cannot reopen while a source generator is active")
        if self._complete:
            raise RuntimeError("cannot reopen a complete ResultLog")
        self._invalidated_because = None
        self._source = source

    def finish(self) -> None:
        """The graceful end: the stream is over, cursors at the end are done."""
        self._settle()
        self._complete = True
        self._closed = True

    def close(self, reason: str = "the query was closed") -> None:
        """Invalidate: close the source generator, keep the prefix readable.

        A log whose source had already run dry (or that was finished) is
        genuinely complete and closing it changes nothing; otherwise cursors
        that ask beyond the materialized prefix get :class:`StaleResultLog`
        with this ``reason``.
        """
        self._settle()
        self._closed = True
        if not self._complete:
            self._invalidated_because = reason

    def _settle(self) -> None:
        """Drop and close the source generator (completion is the caller's call)."""
        source, self._source = self._source, None
        if source is not None:
            close = getattr(source, "close", None)
            if close is not None:
                close()


class QuerySession:
    """A pausable, resumable cursor over a :class:`ResultLog`.

    Sessions never recompute: results behind the cursor are served from the
    log, results ahead of it are produced lazily by the log's source.  A
    session "pauses" by not being polled and "resumes" on the next
    :meth:`next` — across those calls the engine's stores live on inside the
    log's generator closure.

    ``owns_log`` marks the session that controls the log's lifetime; cursors
    handed out by the prefix cache or the streaming maintainer share a log
    they do not own, so closing them never tears down another client's
    computation.
    """

    def __init__(
        self,
        log: ResultLog,
        owns_log: bool = True,
        name: Optional[str] = None,
    ):
        self._log = log
        self._owns_log = owns_log
        self.name = name
        self.position = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    def next(self, k: int = 1) -> List[object]:
        """Return up to ``k`` further results, advancing the cursor.

        Fewer than ``k`` results means the stream is exhausted — or, for a
        live streaming log, that nothing more has arrived *yet*.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self._check_open()
        available = self._log.ensure(self.position + k)
        batch = self._log.results[self.position : min(available, self.position + k)]
        self.position += len(batch)
        return batch

    def peek(self) -> Optional[object]:
        """The next result without consuming it (``None`` when exhausted)."""
        self._check_open()
        available = self._log.ensure(self.position + 1)
        if available <= self.position:
            return None
        return self._log.results[self.position]

    def drain(self) -> List[object]:
        """Every remaining result (the non-interactive tail call)."""
        self._check_open()
        results: List[object] = []
        while True:
            batch = self.next(64)
            if not batch:
                return results
            results.extend(batch)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def exhausted(self) -> bool:
        """True when the cursor has consumed a *complete* log entirely."""
        return self._log.complete and self.position >= len(self._log)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def log(self) -> ResultLog:
        return self._log

    @property
    def emitted(self) -> List[object]:
        """The results this cursor has consumed so far (a list copy)."""
        return list(self._log.results[: self.position])

    @property
    def statistics(self) -> Optional[FDStatistics]:
        return self._log.statistics

    def fork(self, rewind: bool = True) -> "QuerySession":
        """A new cursor over the same log — at the start, or at this position.

        Forks share every already-computed result; they are how a cached
        prefix is replayed to a second client for free.
        """
        fork = QuerySession(self._log, owns_log=False, name=self.name)
        fork.position = 0 if rewind else self.position
        return fork

    def close(self) -> None:
        """End the session; the underlying log is closed only when owned."""
        if self._closed:
            return
        self._closed = True
        if self._owns_log:
            self._log.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the session is closed")

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("done" if self.exhausted else "live")
        return (
            f"QuerySession(name={self.name!r}, position={self.position}, "
            f"log={len(self._log)} results, {state})"
        )


def open_session(
    database: Database,
    engine: str = "fd",
    name: Optional[str] = None,
    statistics: Optional[FDStatistics] = None,
    **options,
) -> QuerySession:
    """Open an owning session over a fresh engine run.

    ``engine`` is one of :data:`ENGINES`; ``options`` are forwarded to the
    engine (``use_index``, ``ranking``, ``join_function``, ``threshold``,
    ``block_size``, …).  The returned session owns its log: closing it
    closes the generator and releases the engine state.
    """
    if statistics is None:
        statistics = FDStatistics()
    options = dict(options, statistics=statistics)
    source = make_result_source(database, engine, **options)
    log = ResultLog(source, statistics=statistics)
    return QuerySession(log, owns_log=True, name=name)
