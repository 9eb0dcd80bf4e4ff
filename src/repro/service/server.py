"""An asyncio JSON-lines server driving query sessions end to end.

One process, one event loop, many clients: each connection speaks a
line-oriented JSON protocol, sessions are multiplexed by a
:class:`SessionDriver` (one ``GetNextResult``-granular step per loop turn),
and identical queries from different clients share prefixes through a
:class:`~repro.service.cache.PrefixCache`.

Protocol (one JSON object per line, both directions)::

    → {"op": "open", "engine": "fd", "use_index": true}
    ← {"ok": true, "session": "s1", "cached": false}
    → {"op": "next", "session": "s1", "k": 5}
    ← {"ok": true, "results": [["c1","f1","l1"], ...], "exhausted": false}
    → {"op": "peek", "session": "s1"}
    → {"op": "ingest", "tuples": [["Prices", ["v1", "w2"]], ...]}
    ← {"ok": true, "applied": 1, "new_results": 2}
    → {"op": "retract", "tuples": [["Prices", "p2"], ...]}
    ← {"ok": true, "retracted": 3, "new_results": 1, "revalidated_queries": 2}
    → {"op": "update", "tuples": [["Prices", "p3", ["v9", "w9"]], ...]}
    → {"op": "close", "session": "s1"}
    → {"op": "stats"}

``next`` takes a positive integer ``k`` (default 1), served at most
:data:`MAX_NEXT_K` results at a time.
``open`` accepts ``engine`` ∈ {"fd", "approx", "ranked", "stream"} plus
engine options (``use_index``, ``threshold``, ``similarity``,
``importance``) and a ``format`` ∈ {"labels", "padded"};
options a given engine does not understand are rejected with a clear error
rather than silently ignored.  The ``stream`` engine serves the live log
of the server's :class:`~repro.service.delta.StreamingFullDisjunction`
maintainer, so an open stream session observes ``ingest``-ed tuples without
restarting — and ``retract``/``update`` mutations too: a deleted result
crosses the wire as a ``{"retract": ...}`` object in stream order.  The
exact, approximate and ranked engines go through the prefix cache; an
``ingest`` invalidates its entries via the database generation token, while
a ``retract`` *revalidates* them — cached first-k prefixes untouched by the
deletion ride through and keep serving without recomputation.

With ``"format": "padded"`` answers carry Table-2-style padded row objects:
``{"labels": [...], "row": {attribute: value-or-null, ...}}`` over the
union schema of the served database, nulls rendered as JSON ``null``
(scores still included on ranked sessions).

The ``ranked`` engine is the top-``(k, f_max)`` surface: ``importance`` is
either a ``{label: value}`` map — validated against the database's labels at
``open`` time, so a typo'd map is a client error, not a silently wrong
ranking (pass ``"default"`` to opt into scoring unlisted labels) — or
absent, which ranks by the importance stored on each tuple.  Ranked results
cross the wire as ``{"labels": [...], "score": ...}`` objects; identical
importance maps from different clients share one cached computation (the
ranking participates in the cache key through its spec and ``c``).

Unranked results cross the wire as sorted label lists — the canonical,
order-insensitive rendering the CLI and tests use.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple as TupleType

from repro.core.approx_join import (
    EditDistanceSimilarity,
    ExactMatchSimilarity,
    MinJoin,
)
from repro.core.ranking import MaxRanking, validate_importance_spec
from repro.core.tupleset import TupleSet
from repro.relational.database import Database
from repro.relational.errors import (
    DatabaseError,
    RankingError,
    RelationError,
    SchemaError,
)
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import trace_span
from repro.relational.nulls import is_null
from repro.relational.operators import combined_schema, pad_tuple_set
from repro.service.cache import PrefixCache, database_generation
from repro.service.delta import StreamingFullDisjunction
from repro.service.session import QuerySession, Retraction, StaleResultLog
from repro.storage.codec import (
    CodecError,
    arrival_from_wire,
    decode_ops,
    removal_from_wire,
    update_from_wire,
)
from repro.storage.snapshot import load_latest_snapshot
from repro.storage.store import (
    DEFAULT_SNAPSHOT_EVERY,
    DurableStore,
    RecoveryError,
)
from repro.storage.wal import DEFAULT_FSYNC_EVERY, WAL_NAME, recover_wal

logger = logging.getLogger(__name__)


#: Longest request or reply line a connection reads, in bytes, in place of
#: asyncio's 64 KiB default, which would cap an ingest batch.  A longer line
#: is answered with :data:`LINE_TOO_LONG` and the connection is closed,
#: because the rest of the line is still in flight.
MAX_LINE_BYTES = 8 * 1024 * 1024
LINE_TOO_LONG = {"ok": False, "error": f"request line exceeds {MAX_LINE_BYTES} bytes"}
#: The reply to a line that is JSON but not an object: the client's error.
NOT_AN_OBJECT = {"ok": False, "error": "a request must be a JSON object"}

#: Most results one ``next`` returns.  A larger ``k`` is served as this
#: many, so one request cannot drain a whole full disjunction into a reply
#: line; the reply then says ``exhausted: false`` while results remain.
MAX_NEXT_K = 10_000

#: Options of an ``open`` request that shape the served computation — the
#: wire-level counterpart of the prefix cache's key options.  ``format``
#: stays out: it shapes the rendering, not the cached result log.  The
#: durable store uses it to index the wire requests whose cached prefixes a
#: snapshot persists.
_ROUTING_KEYS = (
    "engine",
    "use_index",
    "threshold",
    "similarity",
    "importance",
    "default",
    "k",
)


def open_routing_key(request: dict) -> str:
    """The canonical routing key of an ``open`` request.

    A deterministic JSON rendering of the options that key the prefix
    cache: two requests for the same query always produce the same key, so
    the durable store keeps one persisted open per cached prefix.
    """
    payload = {
        key: request[key] for key in _ROUTING_KEYS if request.get(key) is not None
    }
    payload.setdefault("engine", "fd")
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def request_op(request) -> object:
    """The ``op`` of a decoded request, or ``None`` when it has none."""
    return request.get("op") if isinstance(request, dict) else None


def render_result(item) -> List[str]:
    """A result (tuple set, or (tuple set, score) pair) as sorted labels."""
    tuple_set = item[0] if isinstance(item, tuple) else item
    return sorted(t.label for t in tuple_set)


def render_ranked_result(item) -> dict:
    """A ranked result as its wire object: sorted labels plus the score."""
    tuple_set, score = item
    return {"labels": sorted(t.label for t in tuple_set), "score": score}


def render_padded_result(item, schema, ranked: bool = False) -> dict:
    """A result as a Table-2-style padded row object over the union ``schema``.

    The row maps every attribute of the served database's combined schema to
    the result's merged value, with nulls rendered as JSON ``null`` — the
    wire-level counterpart of :func:`repro.relational.operators.pad_tuple_set`.
    The caller computes the schema once per batch of renderings.
    """
    tuple_set = item[0] if isinstance(item, tuple) else item
    padded = pad_tuple_set(tuple_set, schema)
    payload = {
        "labels": sorted(t.label for t in tuple_set),
        "row": {
            attribute: (None if is_null(value) else value)
            for attribute, value in padded.items()
        },
    }
    if ranked:
        payload["score"] = item[1]
    return payload


class SessionDriver:
    """Pull results from many sessions on one event loop, one step at a time.

    A ``GetNextResult`` step is pure CPU work, so concurrent ``next`` pulls
    share the loop cooperatively: :meth:`drive` takes one result, then hands
    control back (``await asyncio.sleep(0)``), and any number of concurrent
    ``drive`` tasks interleave at step granularity instead of one of them
    holding the loop for a whole prefix.  ``steps`` counts the results
    pulled per session label, for the ``stats`` op and the fairness checks.
    """

    #: Retained per-session step counters; a long-running server churns
    #: through sessions, so the oldest labels age out past this bound.
    MAX_TRACKED_SESSIONS = 1024

    def __init__(self):
        #: Steps (results pulled) per session label.
        self.steps: "OrderedDict[str, int]" = OrderedDict()

    def _count(self, session) -> None:
        label = getattr(session, "name", None) or f"session-{id(session):x}"
        self.steps[label] = self.steps.get(label, 0) + 1
        self.steps.move_to_end(label)
        while len(self.steps) > self.MAX_TRACKED_SESSIONS:
            self.steps.popitem(last=False)

    async def drive(self, session, k: Optional[int] = None) -> list:
        """Pull up to ``k`` results from ``session`` (``None`` drains it)."""
        results: list = []
        while k is None or len(results) < k:
            batch = session.next(1)
            if not batch:
                break
            results.extend(batch)
            self._count(session)
            await asyncio.sleep(0)
        return results


class QueryServer:
    """Session bookkeeping + request dispatch for one served database."""

    #: Bound on remembered persistable ``open`` requests (snapshot inputs).
    _MAX_PERSISTABLE_OPENS = 64

    def __init__(
        self,
        database: Database,
        use_index: bool = True,
        cache: Optional[PrefixCache] = None,
        registry: Optional[MetricsRegistry] = None,
        store: Optional[DurableStore] = None,
        read_only: bool = False,
    ):
        self.database = database
        self.use_index = use_index
        self.registry = registry if registry is not None else get_registry()
        self.cache = (
            cache if cache is not None else PrefixCache(registry=self.registry)
        )
        #: The durable store (WAL + snapshots) this server records into;
        #: ``None`` serves purely in memory, exactly as before PR 9.
        self.store = store
        #: Read-only replicas (follower mode) refuse mutating wire ops; the
        #: replication tailer applies the primary's WAL records directly
        #: through the maintainer instead.
        self.read_only = read_only
        self.driver = SessionDriver()
        self.maintainer = StreamingFullDisjunction(database, use_index=use_index)
        #: Wire requests of cache-backed opens, keyed by routing key — the
        #: requests whose cached prefixes a snapshot can persist and a
        #: recovered server can re-install.  JSON-typed by construction.
        self._persistable_opens: "OrderedDict[str, dict]" = OrderedDict()
        self._sessions: Dict[str, QuerySession] = {}
        #: Names of sessions whose results carry scores on the wire.
        self._ranked_sessions: set = set()
        #: Names of sessions whose results cross as padded row objects.
        self._padded_sessions: set = set()
        #: Which engine each live session was opened with (latency labels).
        self._session_engines: Dict[str, str] = {}
        self._session_counter = 0
        self.requests = 0
        self.started_at = time.monotonic()
        # Metric children are resolved once here: the request path pays one
        # ``labels()`` dict probe plus one ``observe()``/``inc()`` per event
        # (and plain no-ops when the registry is disabled).
        self._m_requests = self.registry.counter(
            "repro_requests_total", "Requests handled, by wire op.", ("op",)
        )
        self._m_errors = self.registry.counter(
            "repro_request_errors_total",
            "Requests answered with ok=false, by wire op and by whose error:"
            ' "client" for a refused request, "server" for a handler that raised.',
            ("op", "kind"),
        )
        self._m_latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "Wall-clock latency of one request, by wire op.",
            ("op",),
        )
        self._m_engine_latency = self.registry.histogram(
            "repro_engine_latency_seconds",
            "Latency of session opens and next-batch pulls, by engine.",
            ("engine", "phase"),
        )
        self._m_ingest_lag = self.registry.gauge(
            "repro_ingest_lag_seconds",
            "Monotonic time from ingest receipt to maintainer apply, last batch.",
        )
        self._m_sessions = self.registry.gauge(
            "repro_live_sessions", "Query sessions currently open."
        )

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def handle_request(
        self, request: object, connection_sessions: Optional[set] = None
    ) -> dict:
        """Dispatch one decoded wire request, timed: every op lands in the
        per-op latency histogram and (as a complete span) on the active
        tracer.

        The metric label and span name are the op when the server serves
        it and ``"other"`` when not, so clients cannot grow the label sets.
        A line that is not JSON (passed as its ``JSONDecodeError``) or not a
        JSON object is the client's error, answered under ``"other"``.  An
        error counts under ``kind="server"`` when the handler raised (the
        connection loop logs its traceback) and ``kind="client"`` otherwise.
        """
        self.requests += 1
        op = str(request.get("op")) if isinstance(request, dict) else None
        handler = self._OPS.get(op)
        label = op if handler is not None else "other"
        start = time.perf_counter()
        span = trace_span(f"op.{label}", "server")
        ok = False
        kind = "server"
        try:
            if isinstance(request, json.JSONDecodeError):
                response = {"ok": False, "error": f"bad JSON: {request}"}
            elif op is None:
                response = dict(NOT_AN_OBJECT)
            elif handler is None:
                response = {"ok": False, "error": f"unknown op {op!r}"}
            else:
                response = await handler(self, request, connection_sessions)
            kind = "client"
            ok = bool(response.get("ok"))
            return response
        finally:
            self._m_requests.labels(op=label).inc()
            if not ok:
                self._m_errors.labels(op=label, kind=kind).inc()
            self._m_latency.labels(op=label).observe(time.perf_counter() - start)
            span.close()

    async def _op_ping(self, request: dict, connection_sessions) -> dict:
        return {"ok": True, "pong": True}

    async def _op_open(self, request: dict, connection_sessions) -> dict:
        engine = str(request.get("engine", "fd"))
        if engine not in self._OPEN_ENGINE_KEYS:
            engine = "other"  # a bounded label; the reply names the engine
        started = time.perf_counter()
        response = self._open(request)
        self._m_engine_latency.labels(engine=engine, phase="open").observe(
            time.perf_counter() - started
        )
        if connection_sessions is not None and response.get("ok"):
            connection_sessions.add(response["session"])
        return response

    async def _op_next(self, request: dict, connection_sessions) -> dict:
        engine = self._session_engines.get(request.get("session"), "unknown")
        started = time.perf_counter()
        response = await self._next(request)
        self._m_engine_latency.labels(engine=engine, phase="next").observe(
            time.perf_counter() - started
        )
        return response

    async def _op_peek(self, request: dict, connection_sessions) -> dict:
        return self._peek(request)

    async def _op_close(self, request: dict, connection_sessions) -> dict:
        if connection_sessions is not None:
            connection_sessions.discard(request.get("session"))
        return self._close(request)

    async def _op_ingest(self, request: dict, connection_sessions) -> dict:
        return self._ingest(request)

    async def _op_retract(self, request: dict, connection_sessions) -> dict:
        return self._retract(request)

    async def _op_update(self, request: dict, connection_sessions) -> dict:
        return self._update(request)

    async def _op_snapshot(self, request: dict, connection_sessions) -> dict:
        return self._snapshot_op(request)

    async def _op_stats(self, request: dict, connection_sessions) -> dict:
        response = {"ok": True, **server_stats(self)}
        if request.get("detail") == "metrics":
            response["metrics"] = self.registry.snapshot()
        return response

    #: The ops the server serves, each with its handler.
    _OPS = {
        "ping": _op_ping,
        "open": _op_open,
        "next": _op_next,
        "peek": _op_peek,
        "close": _op_close,
        "ingest": _op_ingest,
        "retract": _op_retract,
        "update": _op_update,
        "snapshot": _op_snapshot,
        "stats": _op_stats,
    }

    # ------------------------------------------------------------------ #
    # observability surfaces
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        """The registry as a Prometheus text page (the sidecar's /metrics)."""
        return self.registry.render()

    def health(self) -> dict:
        """The liveness summary the sidecar serves as /health."""
        return {
            "status": "ok",
            "sessions": len(self._sessions),
            "requests": self.requests,
            "epoch": self.database.epoch,
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    #: Request keys every ``open`` understands, plus the per-engine extras.
    #: ``use_index`` is per-query, so the ``stream`` engine — which serves
    #: the maintainer's live log, built with the *server's* index setting —
    #: rejects it like any other option it would silently ignore.
    _OPEN_BASE_KEYS = frozenset({"op", "engine", "format"})
    _OPEN_ENGINE_KEYS = {
        "fd": frozenset({"use_index"}),
        "approx": frozenset({"use_index", "threshold", "similarity"}),
        "ranked": frozenset({"use_index", "importance", "default", "k"}),
        "stream": frozenset(),
    }

    def _option_error(self, request: dict) -> Optional[dict]:
        """The client error for an ``open`` of an unknown engine, or one
        naming options its engine never reads; ``None`` when there is none.
        Dropping an option silently would serve another query than the
        client asked for, so :meth:`_open` refuses it, and recovery skips a
        persisted open that names one."""
        engine = request.get("engine", "fd")
        allowed = self._OPEN_ENGINE_KEYS.get(engine)
        if allowed is None:
            return {"ok": False, "error": f"unknown engine {engine!r}"}
        unknown = sorted(set(request) - self._OPEN_BASE_KEYS - allowed)
        if not unknown:
            return None
        names = ", ".join(unknown)
        return {"ok": False, "error": f"unknown option(s) for engine {engine!r}: {names}"}

    def _open(self, request: dict) -> dict:
        engine = request.get("engine", "fd")
        error = self._option_error(request)
        if error is not None:
            return error
        render_format = request.get("format", "labels")
        if render_format not in ("labels", "padded"):
            return {
                "ok": False,
                "error": (
                    f"unknown format {render_format!r}; "
                    "expected 'labels' or 'padded'"
                ),
            }
        self._session_counter += 1
        name = f"s{self._session_counter}"
        ranked = False
        if engine == "stream":
            session = self.maintainer.session(name=name)
            cached = True  # the live log is always shared
        else:
            plan, error = self._query_plan(request)
            if plan is None:
                return error
            ranked = plan["ranked"]
            hits_before = self.cache.hits
            session = self.cache.open(
                self.database, plan["cache_engine"], name=name, **plan["options"]
            )
            cached = self.cache.hits > hits_before
            self._remember_open(request)
        self._sessions[name] = session
        self._session_engines[name] = engine
        self._m_sessions.set(len(self._sessions))
        if ranked:
            self._ranked_sessions.add(name)
        if render_format == "padded":
            self._padded_sessions.add(name)
        response = {"ok": True, "session": name, "cached": cached}
        if ranked:
            response["ranked"] = True
        if render_format == "padded":
            response["format"] = "padded"
        return response

    def _query_plan(self, request: dict):
        """Resolve a cache-backed ``open`` request into its cache call.

        Returns ``(plan, None)`` on success — ``plan`` holds the cache
        engine name, the option dict handed to
        :meth:`PrefixCache.open <repro.service.cache.PrefixCache.open>`
        (``cache_tag`` included), and the ``ranked`` flag — or
        ``(None, error_response)`` for a client error.  Shared by the live
        open path and the storage layer, which re-resolves persisted wire
        requests when snapshotting and re-installing cached prefixes, so
        the two can never key the cache differently.
        """
        engine = request.get("engine", "fd")
        options = {"use_index": request.get("use_index", self.use_index)}
        cache_engine = engine
        ranked = False
        if engine == "approx":
            similarity = (
                EditDistanceSimilarity()
                if request.get("similarity", "edit") == "edit"
                else ExactMatchSimilarity()
            )
            options["join_function"] = MinJoin(similarity)
            options["threshold"] = float(request.get("threshold", 0.8))
            options["cache_tag"] = f"minjoin-{request.get('similarity', 'edit')}"
        elif engine == "ranked":
            try:
                options["ranking"] = self._wire_ranking(request)
                if request.get("k") is not None:
                    try:
                        options["k"] = int(request["k"])
                    except (TypeError, ValueError):
                        raise RankingError(
                            "the 'k' option must be an integer"
                        ) from None
            except RankingError as error:
                # A bad importance spec is the *client's* error — refuse
                # the open instead of serving a wrong ranking order.
                return None, {"ok": False, "error": str(error)}
            cache_engine = "priority"
            ranked = True
        return (
            {"cache_engine": cache_engine, "options": options, "ranked": ranked},
            None,
        )

    def _remember_open(self, request: dict) -> None:
        """Record a successful cache-backed open for later snapshots.

        Keyed by routing key so repeats collapse; capped so adversarial
        clients cannot grow the snapshot without bound.  Requests that do
        not render to JSON (in-process callers passing exotic objects) are
        simply not persisted.
        """
        payload = {
            key: value for key, value in request.items() if key != "op"
        }
        try:
            key = open_routing_key(request)
            json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError):
            return
        self._persistable_opens[key] = payload
        self._persistable_opens.move_to_end(key)
        while len(self._persistable_opens) > self._MAX_PERSISTABLE_OPENS:
            self._persistable_opens.popitem(last=False)

    def _wire_ranking(self, request: dict) -> MaxRanking:
        """The ``importance`` spec of a ranked ``open``, validated.

        A ``{label: value}`` map must cover the database's labels exactly
        (``"default"`` opts into scoring unlisted labels); no spec ranks by
        the importance stored on each tuple.  Raises
        :class:`~repro.relational.errors.RankingError` on a bad spec.
        """
        spec = request.get("importance")
        if spec is not None and not isinstance(spec, dict):
            raise RankingError(
                "the 'importance' option must be a {label: value} object"
            )
        if spec is not None:
            try:
                spec = {str(label): float(value) for label, value in spec.items()}
            except (TypeError, ValueError):
                raise RankingError(
                    "importance values must be numbers"
                ) from None
        if "default" in request:
            if spec is None:
                raise RankingError(
                    "the 'default' option needs an 'importance' map to "
                    "complete; without a map, tuples are scored by their "
                    "stored importance and a default is meaningless"
                )
            try:
                default = float(request["default"])
            except (TypeError, ValueError):
                raise RankingError("the 'default' option must be a number") from None
            validate_importance_spec(self.database, spec, default=default)
            return MaxRanking(spec, default=default)
        validate_importance_spec(self.database, spec)
        return MaxRanking(spec)

    def _session_of(self, request: dict) -> TupleType[Optional[QuerySession], dict]:
        name = request.get("session")
        session = self._sessions.get(name)
        if session is None:
            return None, {"ok": False, "error": f"no session {name!r}"}
        return session, {}

    def _renderer(self, request: dict):
        """Ranked sessions ship scores; padded ones ship Table-2 row objects.

        Retraction markers on live stream logs cross as ``{"retract": ...}``
        wrapping the same rendering the original emission used.
        """
        name = request.get("session")
        ranked = name in self._ranked_sessions
        if name in self._padded_sessions:
            # One schema computation per request, not one per rendered item.
            schema = combined_schema(self.database.relations)

            def base(item):
                return render_padded_result(item, schema, ranked=ranked)
        elif ranked:
            base = render_ranked_result
        else:
            base = render_result

        def render(item):
            if isinstance(item, Retraction):
                return {"retract": base(item.item)}
            return base(item)

        return render

    async def _next(self, request: dict) -> dict:
        session, error = self._session_of(request)
        if session is None:
            return error
        k = request.get("k", 1)
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            return {"ok": False, "error": "the 'k' option must be a positive integer"}
        k = min(k, MAX_NEXT_K)
        render = self._renderer(request)
        try:
            results = await self.driver.drive(session, k)
        except StaleResultLog as error:
            # A pull beyond an invalidated prefix: the error tells the client
            # to reopen the query.  The client's cue, not a server fault.
            return {"ok": False, "error": str(error)}
        return {
            "ok": True,
            "results": [render(item) for item in results],
            "exhausted": session.exhausted,
        }

    def _peek(self, request: dict) -> dict:
        session, error = self._session_of(request)
        if session is None:
            return error
        try:
            item = session.peek()
        except StaleResultLog as error:
            return {"ok": False, "error": str(error)}
        render = self._renderer(request)
        return {
            "ok": True,
            "result": None if item is None else render(item),
            "exhausted": session.exhausted,
        }

    def _close(self, request: dict) -> dict:
        session, error = self._session_of(request)
        if session is None:
            return error
        session.close()
        del self._sessions[request["session"]]
        self._ranked_sessions.discard(request["session"])
        self._padded_sessions.discard(request["session"])
        self._session_engines.pop(request["session"], None)
        self._m_sessions.set(len(self._sessions))
        return {"ok": True}

    def _read_only_refusal(self, op: str) -> dict:
        return {
            "ok": False,
            "error": f"{op} refused: this replica is read-only (follower mode)",
            "read_only": True,
        }

    def _record_durable(self, kind: str, ops) -> None:
        """Log an *applied* batch, then maybe snapshot.

        Ordering is the durability contract: the maintainer validates
        before mutating, so only batches that really changed the database
        reach the WAL — the log is always a prefix of the applied history,
        and a crash between apply and append loses only a never-acked
        batch.  The snapshot check runs after the cache maintenance the
        caller already performed, so a cadence-triggered snapshot captures
        the post-mutation cache state.
        """
        if self.store is None or self.store.closed:
            return
        self.store.record(kind, ops, database_generation(self.database))
        self.store.maybe_snapshot(self)

    def _ingest(self, request: dict) -> dict:
        if self.read_only:
            return self._read_only_refusal("ingest")
        received = time.monotonic()
        tuples = request.get("tuples", [])
        try:
            arrivals = [arrival_from_wire(entry) for entry in tuples]
        except CodecError as error:
            return {"ok": False, "error": str(error)}
        record = self.maintainer.ingest(arrivals)
        # Ingest lag: receipt of the batch to the maintainer having applied
        # it — the freshness bound a reader of the live stream observes.
        self._m_ingest_lag.set(time.monotonic() - received)
        # Eagerly kill cached fd/approx logs of the old generation: an open
        # session straddling the ingest must fail fast ("reopen the query")
        # on its next deep pull, not stream from a generator that now
        # observes the mutated database.  Stream sessions live on — the
        # delta results were just appended to their log.
        invalidated = self.cache.invalidate(self.database)
        self._record_durable("ingest", arrivals)
        return {
            "ok": True,
            "applied": record["arrivals"],
            "new_results": record["results_emitted"],
            "candidates_generated": record["candidates_generated"],
            "invalidated_queries": invalidated,
        }

    def _retract(self, request: dict) -> dict:
        if self.read_only:
            return self._read_only_refusal("retract")
        entries = request.get("tuples", [])
        try:
            removals = [removal_from_wire(entry) for entry in entries]
        except CodecError as error:
            return {"ok": False, "error": str(error)}
        try:
            record = self.maintainer.remove(removals)
        except (DatabaseError, RelationError, ValueError) as error:
            # A bad target is the client's error; the batch was validated
            # before anything was tombstoned, so nothing changed.
            return {"ok": False, "error": str(error)}
        # Unlike ingest, a deletion *revalidates* the cache: entries whose
        # materialized prefix holds no deleted tuple are re-keyed under the
        # new generation and keep serving; only touched entries die.
        outcome = self.cache.revalidate(self.database)
        self._record_durable("retract", removals)
        return {
            "ok": True,
            "applied": record["removals"],
            "retracted": record["results_retracted"],
            "new_results": record["results_emitted"],
            "revalidated_queries": outcome["revalidated"],
            "invalidated_queries": outcome["invalidated"],
        }

    def _update(self, request: dict) -> dict:
        if self.read_only:
            return self._read_only_refusal("update")
        entries = request.get("tuples", [])
        try:
            updates = [update_from_wire(entry) for entry in entries]
        except CodecError as error:
            return {"ok": False, "error": str(error)}
        try:
            record = self.maintainer.update(updates)
        except (DatabaseError, RelationError, SchemaError, ValueError) as error:
            return {"ok": False, "error": str(error)}
        # Updates append fresh tuples, so no cached prefix can revalidate;
        # revalidate() degrades to the eager invalidation ingest uses.
        outcome = self.cache.revalidate(self.database)
        self._record_durable("update", updates)
        return {
            "ok": True,
            "applied": record["updates"],
            "retracted": record["results_retracted"],
            "new_results": record["results_emitted"],
            "revalidated_queries": outcome["revalidated"],
            "invalidated_queries": outcome["invalidated"],
        }

    def _snapshot_op(self, request: dict) -> dict:
        """The ``snapshot`` admin op: force a snapshot right now."""
        if self.read_only:
            return self._read_only_refusal("snapshot")
        if self.store is None:
            return {
                "ok": False,
                "error": (
                    "durability is not enabled on this server "
                    "(start it with --data-dir)"
                ),
            }
        return {"ok": True, **self.store.snapshot_now(self)}

    # ------------------------------------------------------------------ #
    # durable state (storage-layer snapshot/restore hooks)
    # ------------------------------------------------------------------ #
    def durable_state(self) -> dict:
        """Everything a snapshot captures about this server.

        The database (gid-stable), the maintainer's emitted stream and
        accumulated store, and every persistable cached prefix together
        with the wire request that opened it — enough for
        :func:`restore_server` to rebuild a server whose streams are
        byte-identical to this one's.
        """
        return {
            "use_index": self.use_index,
            "database": self.database.snapshot_state(),
            "maintainer": self.maintainer.durable_log(),
            "cached": self._cached_prefixes(),
        }

    def _cached_prefixes(self) -> List[dict]:
        """The persistable cached prefixes: request + gid-named results."""
        catalog = self.database.catalog()
        prefixes: List[dict] = []
        for request in self._persistable_opens.values():
            plan, _ = self._query_plan(request)
            if plan is None:  # pragma: no cover - a request that opened once
                continue  # cannot stop planning, but stay defensive
            log = self.cache.entry_log(
                self.database, plan["cache_engine"], **plan["options"]
            )
            if log is None:
                continue
            items: List[dict] = []
            serializable = True
            for item in log.results:
                ranked = isinstance(item, tuple)
                tuple_set = item[0] if ranked else item
                gids = [catalog.id_of(t) for t in tuple_set]
                if any(gid is None for gid in gids):
                    serializable = False  # pragma: no cover - uncatalogued
                    break
                record = {"gids": sorted(gids)}
                if ranked:
                    record["score"] = item[1]
                items.append(record)
            if not serializable:
                continue  # pragma: no cover
            prefixes.append(
                {"request": request, "items": items, "complete": log.complete}
            )
        return prefixes

    def _install_cached_prefix(self, cached: dict) -> None:
        """Re-install one persisted prefix into the cache (recovery path).

        An open that a live ``open`` refuses is skipped: its items (an older
        ``fd``'s ``initialization`` order, say) are no answer to the query
        without the option."""
        request = cached.get("request", {})
        if self._option_error(request) is not None:
            return
        plan, _ = self._query_plan(request)
        if plan is None:
            return
        catalog = self.database.catalog()
        items: List[object] = []
        for record in cached.get("items", []):
            tuple_set = TupleSet(
                [catalog.tuple_at(gid) for gid in record["gids"]], catalog=catalog
            )
            items.append(
                (tuple_set, record["score"]) if "score" in record else tuple_set
            )
        installed = self.cache.install(
            self.database,
            plan["cache_engine"],
            items=items,
            complete=bool(cached.get("complete")),
            **plan["options"],
        )
        if installed:
            self._remember_open(dict(request, op="open"))

    def shutdown(self) -> None:
        """Graceful teardown: final snapshot, WAL flushed, live log sealed.

        Safe to call twice (signal handler plus ``finally`` block).  The
        snapshot runs before the maintainer closes so the persisted live
        log is the serving one; open stream sessions then observe a
        completed stream rather than a dropped connection.
        """
        if self.store is not None and not self.store.closed:
            if not self.read_only:
                self.store.snapshot_now(self)
            self.store.close()
        if not self.maintainer.log.closed:
            self.maintainer.close()

    # ------------------------------------------------------------------ #
    # the TCP face
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Sessions opened over this connection, released on teardown: a
        # client that drops the socket without sending `close` must not leak
        # its sessions in a long-running server.
        connection_sessions: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.CancelledError, ConnectionError):
                    # Server shutdown with the connection still open, or a
                    # peer that reset its socket: end the handler normally so
                    # asyncio's stream teardown does not log a task crash.
                    break
                except ValueError:
                    await reply_line_too_long(writer)
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    request = error
                try:
                    response = await self.handle_request(request, connection_sessions)
                except Exception as error:  # serve errors, don't die
                    logger.exception("server fault on op %r", request_op(request))
                    response = {"ok": False, "error": str(error)}
                writer.write(json.dumps(response).encode() + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break  # the peer went away mid-reply: a disconnect
        finally:
            for name in connection_sessions:
                session = self._sessions.pop(name, None)
                self._ranked_sessions.discard(name)
                self._padded_sessions.discard(name)
                self._session_engines.pop(name, None)
                if session is not None:
                    session.close()
            self._m_sessions.set(len(self._sessions))
            writer.close()
            # Swallow cancellation too: when the server is closed while this
            # handler still awaits, ending the coroutine normally (we are
            # done anyway) keeps asyncio's stream teardown from logging a
            # spurious CancelledError traceback.
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):  # pragma: no cover
                pass


async def reply_line_too_long(writer: asyncio.StreamWriter) -> None:
    """Answer a line longer than :data:`MAX_LINE_BYTES`; the caller then hangs up."""
    writer.write(json.dumps(LINE_TOO_LONG).encode() + b"\n")
    try:
        await writer.drain()
    except ConnectionError:
        pass


def server_stats(state: QueryServer) -> dict:
    """The one shared shape of a server's self-description.

    Both consumers — the ``stats`` wire op and ``run_server``'s smoke
    summary — build on this, so a field added here shows up in both and
    the two can't drift.
    """
    stats = {
        "cache": state.cache.stats(),
        "sessions": len(state._sessions),
        "requests": state.requests,
        "steps": dict(state.driver.steps),
        "arrivals_applied": state.maintainer.arrivals_applied,
        "mutations_applied": state.maintainer.mutations_applied,
        "epoch": state.database.epoch,
        "read_only": state.read_only,
        "uptime_seconds": time.monotonic() - state.started_at,
    }
    if state.store is not None:
        stats["durability"] = state.store.stats()
    return stats


# ---------------------------------------------------------------------- #
# crash recovery: snapshot + WAL tail → an equivalent server
# ---------------------------------------------------------------------- #
def apply_wal_record(state: QueryServer, payload: dict) -> None:
    """Apply one decoded WAL record to ``state`` as the live path would.

    Shared by owner-side replay (:func:`open_durable_server`) and the
    follower tailer: the batch goes through the same maintainer entry
    points and the same cache maintenance as a wire mutation, then the
    database's generation token is asserted against the one the primary
    recorded *after* applying — divergence fails fast as a
    :class:`~repro.storage.store.RecoveryError` instead of silently
    serving wrong streams.
    """
    kind = payload.get("kind")
    ops = decode_ops(payload.get("ops", []))
    if kind == "ingest":
        state.maintainer.ingest(ops)
        state.cache.invalidate(state.database)
    elif kind == "retract":
        state.maintainer.remove(ops)
        state.cache.revalidate(state.database)
    elif kind == "update":
        state.maintainer.update(ops)
        state.cache.revalidate(state.database)
    else:
        raise RecoveryError(f"unknown WAL record kind {kind!r}")
    expected = payload.get("generation")
    actual = list(database_generation(state.database))
    if expected is not None and list(expected) != actual:
        raise RecoveryError(
            f"replay diverged: WAL record expects generation {expected}, "
            f"replayed database is at {actual}"
        )


def restore_server(
    snapshot: dict,
    registry: Optional[MetricsRegistry] = None,
    read_only: bool = False,
) -> QueryServer:
    """Rebuild a :class:`QueryServer` from a snapshot document.

    The inverse of :meth:`QueryServer.durable_state`: database (gid-stable),
    maintainer stream/store, and every persisted cached prefix — installed
    *before* any WAL-tail replay, so the cache keys carry the snapshot's
    generation and replay maintains them exactly as live mutations would.
    """
    database = Database.restore_state(snapshot["database"])
    state = QueryServer(
        database,
        use_index=bool(snapshot.get("use_index", True)),
        registry=registry,
        read_only=read_only,
    )
    state.maintainer.restore_durable_log(snapshot.get("maintainer"))
    for cached in snapshot.get("cached", []):
        state._install_cached_prefix(cached)
    return state


def open_durable_server(
    database: Optional[Database],
    data_dir: str,
    use_index: bool = True,
    registry: Optional[MetricsRegistry] = None,
    snapshot_every: Optional[int] = DEFAULT_SNAPSHOT_EVERY,
    fsync_every: int = DEFAULT_FSYNC_EVERY,
) -> QueryServer:
    """Open a durable server on ``data_dir``, recovering if state exists.

    Fresh directory: serve ``database`` and write a bootstrap snapshot so
    a crash before the first cadence snapshot still recovers.  Existing
    snapshot: ignore ``database`` (the directory is authoritative), load
    the latest valid snapshot, recover the WAL (truncating any torn tail),
    and replay every record past the snapshot's ``wal_offset`` through
    :func:`apply_wal_record`.  The recovered server is then attached to a
    fresh appender on the same WAL and serves exactly as if it had never
    crashed.
    """
    loaded = load_latest_snapshot(data_dir)
    wal_path = os.path.join(data_dir, WAL_NAME)
    if loaded is None:
        records, good_end, _ = recover_wal(wal_path)
        if records or good_end:
            raise RecoveryError(
                f"{data_dir} has a WAL but no readable snapshot; refusing to "
                "guess at the pre-WAL state"
            )
        if database is None:
            raise RecoveryError(
                f"{data_dir} holds no recoverable state and no database "
                "was supplied to bootstrap one"
            )
        store = DurableStore(
            data_dir,
            fsync_every=fsync_every,
            snapshot_every=snapshot_every,
            registry=registry,
        )
        state = QueryServer(
            database, use_index=use_index, registry=registry, store=store
        )
        # Bootstrap snapshot: the base state every later WAL record builds
        # on.  Without it, a crash before the first cadence snapshot would
        # leave a WAL whose starting point exists nowhere on disk.
        store.snapshot_now(state)
        store.recovery_info = {"recovered": False}
        return state

    snapshot, snapshot_path = loaded
    records, good_end, truncated = recover_wal(wal_path)
    wal_offset = int(snapshot.get("wal_offset", 0))
    if good_end < wal_offset:
        raise RecoveryError(
            f"WAL ends at {good_end} but snapshot "
            f"{os.path.basename(snapshot_path)} is consistent with offset "
            f"{wal_offset}; the log was truncated beneath its snapshot"
        )
    state = restore_server(snapshot, registry=registry)
    tail = [(payload, end) for payload, end in records if end > wal_offset]
    for payload, _ in tail:
        apply_wal_record(state, payload)
    store = DurableStore(
        data_dir,
        fsync_every=fsync_every,
        snapshot_every=snapshot_every,
        registry=registry,
    )
    store.ops_since_snapshot = len(tail)
    store.recovery_info = {
        "recovered": True,
        "snapshot": os.path.basename(snapshot_path),
        "replayed_records": len(tail),
        "truncated_bytes": truncated,
    }
    state.store = store
    return state


async def start_server(
    database: Database,
    host: str = "127.0.0.1",
    port: int = 0,
    use_index: bool = True,
    state: Optional[QueryServer] = None,
) -> TupleType[asyncio.AbstractServer, QueryServer, int]:
    """Start serving; returns ``(asyncio server, state, bound port)``.

    ``port=0`` binds an ephemeral port — the smoke harness and tests use
    this to avoid collisions.  Pass ``state`` to serve a prepared server —
    a recovered one from :func:`open_durable_server`, or a read-only
    follower — instead of a fresh in-memory ``QueryServer``.
    """
    if state is None:
        state = QueryServer(database, use_index=use_index)
    server = await asyncio.start_server(
        state.handle_connection, host, port, limit=MAX_LINE_BYTES
    )
    bound_port = server.sockets[0].getsockname()[1]
    return server, state, bound_port


# ---------------------------------------------------------------------- #
# client helpers (used by tests, the smoke harness and examples)
# ---------------------------------------------------------------------- #
async def client_call(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: dict
) -> dict:
    """One request/response round trip on an open connection."""
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


async def fetch_first_k(
    host: str, port: int, k: Optional[int], engine: str = "fd", chunk: int = 4, **opts
) -> List[List[str]]:
    """A complete client: open, pull ``k`` results chunk by chunk, close.

    ``k=None`` drains the stream.  Pulling in chunks (rather than one big
    ``next``) is what actually exercises pause/resume over the wire.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        opened = await client_call(
            reader, writer, {"op": "open", "engine": engine, **opts}
        )
        if not opened.get("ok"):
            raise RuntimeError(opened.get("error", "open failed"))
        session = opened["session"]
        results: List[List[str]] = []
        while k is None or len(results) < k:
            want = chunk if k is None else min(chunk, k - len(results))
            reply = await client_call(
                reader, writer, {"op": "next", "session": session, "k": want}
            )
            if not reply.get("ok"):
                raise RuntimeError(reply.get("error", "next failed"))
            results.extend(reply["results"])
            if len(reply["results"]) < want:
                break
        await client_call(reader, writer, {"op": "close", "session": session})
        return results
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def smoke_importance_map(database: Database) -> Dict[str, float]:
    """A deterministic ``{label: importance}`` map over a served database.

    Label-derived (not random, not stored): the ranked smoke harness sends
    it over the wire and recomputes the reference ranking in-process, so
    both sides must agree on it without sharing state.  The modulus keeps
    values small and forces score ties.
    """
    return {
        t.label: float(sum(ord(ch) for ch in t.label) % 7)
        for t in database.tuples()
    }


async def _smoke(
    database: Database, clients: int, k: Optional[int], use_index: bool, **opts
) -> dict:
    server, state, port = await start_server(database, use_index=use_index)
    try:
        per_client = await asyncio.gather(
            *(
                fetch_first_k("127.0.0.1", port, k, chunk=3, **opts)
                for _ in range(clients)
            )
        )
    finally:
        server.close()
        await server.wait_closed()
    return {"per_client": per_client, **server_stats(state)}


def run_smoke(
    database: Database,
    clients: int = 4,
    k: Optional[int] = None,
    use_index: bool = True,
    engine: str = "fd",
) -> dict:
    """Start a server, run concurrent clients, assert parity with serial.

    The end-to-end check behind ``repro serve --smoke-clients`` and the CI
    serving job: every client must receive exactly the serial engine's
    result sequence (label lists for ``engine="fd"``; label-plus-score
    objects, scores included, for ``engine="ranked"``), and all clients but
    the first must have hit the shared prefix cache.  Raises
    ``AssertionError`` on any mismatch; returns the summary dict on success.
    """
    opts: dict = {"engine": engine}
    if engine == "ranked":
        from repro.core.priority import priority_incremental_fd

        importance = smoke_importance_map(database)
        opts["importance"] = importance
        serial: List[object] = []
        for tuple_set, score in priority_incremental_fd(
            database, MaxRanking(importance), use_index=use_index
        ):
            if k is not None and len(serial) >= k:
                break
            serial.append(
                {"labels": sorted(t.label for t in tuple_set), "score": score}
            )
    elif engine == "fd":
        from repro.core.full_disjunction import full_disjunction_sets

        serial = []
        for tuple_set in full_disjunction_sets(database, use_index=use_index):
            if k is not None and len(serial) >= k:
                break
            serial.append(sorted(t.label for t in tuple_set))
    else:
        raise ValueError(f"run_smoke supports engines 'fd' and 'ranked', not {engine!r}")

    outcome = asyncio.run(_smoke(database, clients, k, use_index, **opts))
    for index, received in enumerate(outcome["per_client"]):
        assert received == serial, (
            f"client {index} diverged from the serial run: "
            f"{len(received)} vs {len(serial)} results"
        )
    cache = outcome["cache"]
    assert cache["misses"] >= 1
    assert cache["hits"] >= clients - 1, f"expected shared prefixes: {cache}"
    outcome["results_per_client"] = len(serial)
    outcome["clients"] = clients
    outcome["engine"] = engine
    return outcome
