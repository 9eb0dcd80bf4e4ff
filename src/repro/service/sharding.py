"""An anchor-bucket-sharded server: shard processes, routing, backpressure.

One :class:`~repro.service.server.QueryServer` runs everything on a single
event loop over a single in-memory store — fine for a demo, a ceiling for
"thousands of concurrent cursors".  This module carries the bucket
partitioning of :mod:`repro.exec.sharded` up into the service layer:

* **Shard processes.**  ``start_sharded_server`` spawns ``N`` worker
  processes, each running the unmodified asyncio JSON-lines
  :class:`~repro.service.server.QueryServer` (its own event loop, its own
  :class:`~repro.service.cache.PrefixCache`, its own live
  :class:`~repro.service.delta.StreamingFullDisjunction` maintainer) over its
  own copy of the database.
* **Routing.**  A front-end router accepts client connections and forwards
  each ``open`` to the shard chosen by a **consistent hash of the query's
  canonical cache key** (engine plus every option that keys the prefix
  cache).  Identical queries from different clients therefore land on the
  same shard and share one cached prefix, exactly as they shared it in the
  single-process server — the cache's entry space is partitioned across
  shards, never duplicated.  Session ids are rewritten to router-global
  names (``g1``, ``g2``, …), so clients never see the shard topology.
* **Mutations.**  ``ingest``/``retract``/``update`` are broadcast to every
  shard in shard order; each shard's maintainer and cache apply the same
  delta, so all replicas stay byte-identical and any shard can serve any
  future query.
* **Admission control and backpressure.**  Each shard has a bounded live
  session count and a bounded request queue.  A request that would exceed
  either limit is refused *immediately* with ``{"ok": false, "busy": true,
  "retry_after_ms": ...}`` instead of growing an unbounded queue — clients
  retry with the hint, and ``stats`` exposes per-shard session and
  queue-depth gauges so operators can see saturation coming.

The router speaks the same wire protocol as the single-process server, so
every existing client — ``fetch_first_k``, the smoke harnesses, the CLI —
works against either unchanged.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import signal
import time
from typing import Dict, List, Optional, Tuple as TupleType

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    labeled_snapshot,
    merge_snapshots,
    render_snapshot,
)
from repro.relational.database import Database

# The routing key moved next to the server (the durable store indexes
# persisted opens by it too); re-exported here for existing importers.
from repro.service.server import (  # noqa: F401 - re-export
    _ROUTING_KEYS,
    LINE_TOO_LONG,
    MAX_LINE_BYTES,
    NOT_AN_OBJECT,
    client_call,
    open_routing_key,
    reply_line_too_long,
    request_op,
    start_server,
)

logger = logging.getLogger(__name__)


class ConsistentHashRing:
    """A classic vnode hash ring over shard indexes.

    ``vnodes`` virtual points per shard smooth the key distribution; the
    ring is a pure function of ``(shard_count, vnodes)``, so every router
    instance over the same topology routes identically.
    """

    def __init__(self, shard_count: int, vnodes: int = 64):
        if shard_count < 1:
            raise ValueError(f"shard_count must be positive, got {shard_count}")
        points: List[TupleType[int, int]] = []
        for shard in range(shard_count):
            for vnode in range(vnodes):
                digest = hashlib.sha1(
                    f"shard-{shard}-vnode-{vnode}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]
        self.shard_count = shard_count

    def shard_for(self, key: str) -> int:
        digest = hashlib.sha1(key.encode()).digest()
        position = int.from_bytes(digest[:8], "big")
        index = bisect.bisect_right(self._hashes, position) % len(self._hashes)
        return self._shards[index]


def _shard_main(
    connection, payload: bytes, use_index: bool, data_dir: Optional[str] = None
) -> None:
    """Entry point of one shard process: serve its database copy forever.

    Reports the ephemeral port back through ``connection`` once bound.
    Module-level so the spawn start method can pickle it.  With a
    ``data_dir``, the shard serves durably: it recovers that directory if
    it holds state (mutations are broadcast in shard order, so every
    shard's WAL carries the same op sequence and each recovers its own
    replica), seals it on termination, and bootstraps it otherwise.
    """
    database = pickle.loads(payload)
    state = None
    if data_dir is not None:
        from repro.service.server import open_durable_server

        state = open_durable_server(database, data_dir, use_index=use_index)

    async def serve() -> None:
        server, _, port = await start_server(
            database, use_index=use_index, state=state
        )
        connection.send(port)
        connection.close()
        # The router tears shards down with SIGTERM: turn it into a
        # graceful stop so a durable shard seals its WAL and writes a
        # final snapshot instead of leaving a torn tail to recover.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        async with server:
            await stop.wait()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    finally:
        if state is not None:
            state.shutdown()


class ShardHandle:
    """The router's view of one shard: process, upstream connection, gauges."""

    def __init__(self, index: int, process, host: str, port: int):
        self.index = index
        self.process = process
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()
        #: Requests admitted for this shard and not yet answered — the
        #: queue-depth gauge that admission control bounds.
        self.pending = 0
        #: Router-global names of the live sessions routed to this shard.
        self.sessions: set = set()
        self.requests = 0

    async def call(self, request: dict) -> dict:
        """One request/response round trip on the shard's upstream socket.

        The per-shard lock serializes round trips (the JSON-lines protocol
        is strictly request/response per connection); callers already
        incremented ``pending``, so the time spent waiting here *is* the
        queue depth the gauges report.

        A request whose encoding exceeds :data:`MAX_LINE_BYTES` is answered
        with :data:`LINE_TOO_LONG` and never sent: a line the router read
        within the limit can outgrow it once re-encoded (non-ASCII text
        becomes ``\\uXXXX`` escapes), and the shard would refuse it and hang
        up.  When a round trip fails — the connection is lost, or a reply
        exceeds the limit and its rest is still in the stream — the
        connection is dropped, so that the next call reconnects instead of
        reading a stale reply.  The shard closes the sessions it carried.
        """
        line = json.dumps(request).encode()
        if len(line) > MAX_LINE_BYTES:
            return dict(LINE_TOO_LONG)
        async with self._lock:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES
                )
            self.requests += 1
            try:
                self._writer.write(line + b"\n")
                await self._writer.drain()
                reply = await self._reader.readline()
                if not reply:
                    raise ConnectionError("shard closed the connection")
                return json.loads(reply)
            except (OSError, ValueError) as error:
                await self.close()
                raise ConnectionError(
                    f"shard {self.index} connection dropped: {error}"
                ) from error

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)


class ShardedQueryServer:
    """Routes the wire protocol across shard processes with admission control."""

    #: Ops forwarded to the session's shard (after admission).
    _SESSION_OPS = frozenset({"next", "peek", "close"})
    #: Ops broadcast to every shard so the replicas stay identical.
    _BROADCAST_OPS = frozenset({"ingest", "retract", "update"})

    def __init__(
        self,
        shards: List[ShardHandle],
        max_sessions_per_shard: int = 256,
        max_queue_per_shard: int = 64,
        retry_after_ms: int = 50,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_sessions_per_shard < 1:
            raise ValueError("max_sessions_per_shard must be positive")
        if max_queue_per_shard < 1:
            raise ValueError("max_queue_per_shard must be positive")
        self.shards = shards
        self.ring = ConsistentHashRing(len(shards))
        self.max_sessions_per_shard = max_sessions_per_shard
        self.max_queue_per_shard = max_queue_per_shard
        self.retry_after_ms = retry_after_ms
        #: Router-global session name → (shard handle, shard-local name).
        self._session_map: Dict[str, TupleType[ShardHandle, str]] = {}
        self._session_counter = 0
        self.requests = 0
        self.busy_rejections = 0
        self.started_at = time.monotonic()
        # The router's own live series; shard registries are *aggregated*
        # on demand (``stats {"detail": "metrics"}`` / the sidecar) with a
        # ``shard`` label stamped per replica.
        self.registry = registry if registry is not None else get_registry()
        self._m_requests = self.registry.counter(
            "repro_router_requests_total", "Requests handled by the router."
        )
        self._m_busy = self.registry.counter(
            "repro_router_busy_rejections_total",
            "Requests refused busy by admission control.",
        )
        self._m_queue = self.registry.gauge(
            "repro_router_queue_depth",
            "Admitted requests in flight toward one shard.",
            ("shard",),
        )
        self._m_shard_sessions = self.registry.gauge(
            "repro_router_shard_sessions",
            "Live sessions routed to one shard.",
            ("shard",),
        )
        self._m_sessions = self.registry.gauge(
            "repro_router_sessions", "Live sessions across the deployment."
        )

    # ------------------------------------------------------------------ #
    # admission control
    # ------------------------------------------------------------------ #
    def _busy(self, shard: ShardHandle, what: str) -> dict:
        self.busy_rejections += 1
        self._m_busy.inc()
        return {
            "ok": False,
            "busy": True,
            "error": f"shard {shard.index} at {what} capacity; retry later",
            "retry_after_ms": self.retry_after_ms,
        }

    async def _forward(self, shard: ShardHandle, request: dict) -> dict:
        """Forward after the queue admission check; ``pending`` is the gauge."""
        if shard.pending >= self.max_queue_per_shard:
            return self._busy(shard, "queue")
        shard.pending += 1
        gauge = self._m_queue.labels(shard=shard.index)
        gauge.set(shard.pending)
        try:
            return await shard.call(request)
        except ConnectionError:
            # The shard closed every session of the dropped connection.
            for name in shard.sessions:
                self._session_map.pop(name, None)
            shard.sessions.clear()
            self._track_sessions(shard)
            raise
        finally:
            shard.pending -= 1
            gauge.set(shard.pending)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def handle_request(
        self, request: dict, connection_sessions: Optional[set] = None
    ) -> dict:
        self.requests += 1
        self._m_requests.inc()
        if not isinstance(request, dict):
            return dict(NOT_AN_OBJECT)
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True, "shards": len(self.shards)}
        if op == "open":
            return await self._open(request, connection_sessions)
        if op in self._SESSION_OPS:
            return await self._session_op(op, request, connection_sessions)
        if op in self._BROADCAST_OPS:
            return await self._broadcast(request)
        if op == "stats":
            return await self._stats(detail=request.get("detail"))
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _open(
        self, request: dict, connection_sessions: Optional[set]
    ) -> dict:
        shard = self.shards[self.ring.shard_for(open_routing_key(request))]
        if len(shard.sessions) >= self.max_sessions_per_shard:
            return self._busy(shard, "session")
        response = await self._forward(shard, request)
        if not response.get("ok"):
            return response
        local_name = response["session"]
        self._session_counter += 1
        name = f"g{self._session_counter}"
        self._session_map[name] = (shard, local_name)
        shard.sessions.add(name)
        self._track_sessions(shard)
        if connection_sessions is not None:
            connection_sessions.add(name)
        response["session"] = name
        response["shard"] = shard.index
        return response

    async def _session_op(
        self, op: str, request: dict, connection_sessions: Optional[set]
    ) -> dict:
        name = request.get("session")
        routed = self._session_map.get(name)
        if routed is None:
            return {"ok": False, "error": f"no session {name!r}"}
        shard, local_name = routed
        response = await self._forward(
            shard, {**request, "session": local_name}
        )
        if op == "close" and response.get("ok"):
            self._session_map.pop(name, None)
            shard.sessions.discard(name)
            self._track_sessions(shard)
            if connection_sessions is not None:
                connection_sessions.discard(name)
        return response

    def _track_sessions(self, shard: ShardHandle) -> None:
        self._m_shard_sessions.labels(shard=shard.index).set(len(shard.sessions))
        self._m_sessions.set(len(self._session_map))

    async def _broadcast(self, request: dict) -> dict:
        """Apply a mutation to every shard, in shard order.

        Every shard holds the same database replica, so the responses agree;
        the first shard's response answers the client, annotated with the
        replica count.  A failure on the first shard (a client error — bad
        target, bad payload) is returned *without* touching the others, so
        the replicas never diverge on validation errors.
        """
        first = await self._forward(self.shards[0], request)
        if not first.get("ok"):
            return first
        for shard in self.shards[1:]:
            response = await self._forward(shard, request)
            if not response.get("ok"):  # pragma: no cover - replica divergence
                return {
                    "ok": False,
                    "error": (
                        f"shard {shard.index} diverged applying the mutation: "
                        f"{response.get('error')}"
                    ),
                }
        first["shards_applied"] = len(self.shards)
        return first

    async def _stats(self, detail: Optional[str] = None) -> dict:
        upstream_request = {"op": "stats"}
        if detail == "metrics":
            upstream_request["detail"] = "metrics"
        per_shard = []
        shard_snapshots = []
        shard_requests = 0
        for shard in self.shards:
            upstream = await self._forward(shard, upstream_request)
            shard_requests += int(upstream.get("requests") or 0)
            per_shard.append(
                {
                    "shard": shard.index,
                    "sessions": len(shard.sessions),
                    "queue_depth": shard.pending,
                    "requests": shard.requests,
                    "server_requests": upstream.get("requests"),
                    "cache": upstream.get("cache"),
                }
            )
            if detail == "metrics" and upstream.get("metrics") is not None:
                shard_snapshots.append(
                    labeled_snapshot(upstream["metrics"], shard=shard.index)
                )
        response = {
            "ok": True,
            "shards": len(self.shards),
            "sessions": len(self._session_map),
            # The whole deployment in one call: how long this router has
            # been up, every session it ever admitted, and the requests the
            # shard servers processed on its behalf.
            "uptime_seconds": time.monotonic() - self.started_at,
            "sessions_total": self._session_counter,
            "requests": self.requests,
            "requests_aggregate": shard_requests,
            "busy_rejections": self.busy_rejections,
            "limits": {
                "max_sessions_per_shard": self.max_sessions_per_shard,
                "max_queue_per_shard": self.max_queue_per_shard,
            },
            "per_shard": per_shard,
        }
        if detail == "metrics":
            response["metrics"] = merge_snapshots(
                [labeled_snapshot(self.registry.snapshot(), shard="router")]
                + shard_snapshots
            )
        return response

    # ------------------------------------------------------------------ #
    # observability surfaces
    # ------------------------------------------------------------------ #
    async def render_metrics(self) -> str:
        """One Prometheus page for the deployment: router + every shard.

        Shard registries cross the wire as snapshots (the ``stats`` metrics
        detail) and are stamped with a ``shard`` label before merging, so
        same-named series stay attributed per replica.
        """
        stats = await self._stats(detail="metrics")
        return render_snapshot(stats["metrics"])

    async def health(self) -> dict:
        """Deployment liveness: the router plus per-shard process aliveness."""
        shard_health = []
        alive = 0
        for shard in self.shards:
            is_alive = shard.process is None or shard.process.is_alive()
            alive += bool(is_alive)
            shard_health.append({"shard": shard.index, "alive": bool(is_alive)})
        return {
            "status": "ok" if alive == len(self.shards) else "degraded",
            "shards": shard_health,
            "sessions": len(self._session_map),
            "requests": self.requests,
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    # ------------------------------------------------------------------ #
    # the TCP face (same JSON-lines loop as the single-process server)
    # ------------------------------------------------------------------ #
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection_sessions: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    break
                except ValueError:
                    await reply_line_too_long(writer)
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as error:
                    response = {"ok": False, "error": f"bad JSON: {error}"}
                else:
                    try:
                        response = await self.handle_request(
                            request, connection_sessions
                        )
                    except Exception as error:  # serve errors, don't die
                        logger.exception("router fault on op %r", request_op(request))
                        response = {"ok": False, "error": str(error)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        finally:
            # A dropped connection releases its sessions on the shards too.
            for name in connection_sessions:
                routed = self._session_map.pop(name, None)
                if routed is None:
                    continue
                shard, local_name = routed
                shard.sessions.discard(name)
                self._track_sessions(shard)
                try:
                    await shard.call({"op": "close", "session": local_name})
                except (ConnectionError, OSError):  # pragma: no cover
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def shutdown(self) -> None:
        """Release upstream connections, shard processes, and worker pools."""
        from repro.exec import shutdown_pools

        for shard in self.shards:
            await shard.close()
        for shard in self.shards:
            shard.terminate()
        shutdown_pools()


async def start_sharded_server(
    database: Database,
    shards: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    use_index: bool = True,
    max_sessions_per_shard: int = 256,
    max_queue_per_shard: int = 64,
    retry_after_ms: int = 50,
    data_dir: Optional[str] = None,
) -> TupleType[asyncio.AbstractServer, ShardedQueryServer, int]:
    """Spawn ``shards`` worker processes and a router; returns
    ``(asyncio server, router state, bound port)``.

    The database is pickled once (catalog included, so shards skip the
    bitmatrix build) and shipped to every shard; each shard binds an
    ephemeral local port and reports it back before the router accepts its
    first client.  Call :meth:`ShardedQueryServer.shutdown` after closing
    the returned server.

    With a ``data_dir``, every shard serves durably in its own namespace
    (``<data_dir>/shard-N`` — WALs are single-writer, so replicas never
    share one): each recovers or bootstraps its own directory on start and
    seals it on SIGTERM.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    database.catalog()  # build once in the parent; every shard inherits it
    payload = pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)
    context = multiprocessing.get_context("spawn")
    loop = asyncio.get_running_loop()

    handles: List[ShardHandle] = []
    started = []
    try:
        for index in range(shards):
            parent_end, child_end = context.Pipe(duplex=False)
            shard_dir = (
                os.path.join(data_dir, f"shard-{index}")
                if data_dir is not None
                else None
            )
            process = context.Process(
                target=_shard_main,
                args=(child_end, payload, use_index, shard_dir),
                daemon=True,
            )
            process.start()
            child_end.close()
            started.append((index, process, parent_end))
        for index, process, parent_end in started:
            shard_port = await loop.run_in_executor(None, parent_end.recv)
            parent_end.close()
            handles.append(ShardHandle(index, process, "127.0.0.1", shard_port))
    except BaseException:
        for _, process, _ in started:
            if process.is_alive():
                process.terminate()
        raise

    router = ShardedQueryServer(
        handles,
        max_sessions_per_shard=max_sessions_per_shard,
        max_queue_per_shard=max_queue_per_shard,
        retry_after_ms=retry_after_ms,
    )
    server = await asyncio.start_server(
        router.handle_connection, host, port, limit=MAX_LINE_BYTES
    )
    bound_port = server.sockets[0].getsockname()[1]
    return server, router, bound_port


async def _sharded_smoke(
    database: Database,
    clients: int,
    k: Optional[int],
    shards: int,
    use_index: bool,
    **opts,
) -> dict:
    from repro.service.server import fetch_first_k

    server, router, port = await start_sharded_server(
        database, shards=shards, use_index=use_index
    )
    try:
        per_client = await asyncio.gather(
            *(
                fetch_first_k("127.0.0.1", port, k, chunk=3, **opts)
                for _ in range(clients)
            )
        )
        stats = await router.handle_request({"op": "stats"})
    finally:
        server.close()
        await server.wait_closed()
        await router.shutdown()
    return {"per_client": per_client, "stats": stats}


def run_sharded_smoke(
    database: Database,
    clients: int = 4,
    k: Optional[int] = None,
    shards: int = 2,
    use_index: bool = True,
    engine: str = "fd",
) -> dict:
    """Start a sharded server, run concurrent clients, assert serial parity.

    The multi-process counterpart of
    :func:`repro.service.server.run_smoke`, behind
    ``repro serve --shards N --smoke-clients M`` and the CI multi-worker
    serving job: every client must receive exactly the serial engine's
    result stream, through the router, regardless of which shard served it.
    Raises ``AssertionError`` on mismatch; returns the summary on success.
    """
    opts: dict = {"engine": engine}
    if engine == "ranked":
        from repro.core.priority import priority_incremental_fd
        from repro.core.ranking import MaxRanking
        from repro.service.server import smoke_importance_map

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
        raise ValueError(
            f"run_sharded_smoke supports engines 'fd' and 'ranked', not {engine!r}"
        )

    outcome = asyncio.run(
        _sharded_smoke(database, clients, k, shards, use_index, **opts)
    )
    for index, received in enumerate(outcome["per_client"]):
        assert received == serial, (
            f"client {index} diverged from the serial run through the router: "
            f"{len(received)} vs {len(serial)} results"
        )
    stats = outcome["stats"]
    assert stats["shards"] == shards
    outcome["results_per_client"] = len(serial)
    outcome["clients"] = clients
    outcome["shards"] = shards
    outcome["engine"] = engine
    return outcome
