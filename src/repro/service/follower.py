"""Read-only follower replicas tailing a primary's write-ahead log.

A follower is a :class:`~repro.service.server.QueryServer` restored from
the primary's latest snapshot and kept fresh by *tailing* the primary's
``wal.log``: every poll reads the complete frames past the follower's
offset (:func:`repro.storage.wal.read_available` — an in-flight partial
frame is simply not yet written, and the primary's file is never
truncated) and applies them through
:func:`~repro.service.server.apply_wal_record` — the same maintainer entry
points and cache maintenance as the primary's own wire mutations, with
the same per-record generation assertion.  Replication is therefore
*physical agreement through logical replay*: the follower's streams are
byte-identical to the primary's because both sides run the identical
deterministic pipeline over the identical op sequence.

The follower serves the read-only half of the wire protocol (``open`` /
``next`` / ``peek`` / ``close`` / ``stats`` / ``ping``); mutating ops are
refused with ``read_only: true`` so a misdirected client fails loudly
instead of forking history.  Replication lag is exported through the
``obs`` registry as the wall-clock age of the last applied record.

In this file-tailing design, primary and followers live on one host (or
one shared filesystem), each process serving its own port.  Remote log
shipping would slot in behind :meth:`FollowerTailer.poll_once` without
touching the apply path.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Optional

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.service.server import (
    QueryServer,
    apply_wal_record,
    restore_server,
    start_server,
)
from repro.storage.snapshot import load_latest_snapshot
from repro.storage.store import RecoveryError
from repro.storage.wal import WAL_NAME, read_available

#: Default seconds between polls of the primary's WAL.
DEFAULT_POLL_INTERVAL = 0.05


class FollowerTailer:
    """Tail a primary's WAL and apply new records to a follower server."""

    def __init__(
        self,
        state: QueryServer,
        data_dir: str,
        offset: int = 0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.state = state
        self.wal_path = os.path.join(data_dir, WAL_NAME)
        self.offset = offset
        self.poll_interval = poll_interval
        self.records_applied = 0
        self.lag_seconds = 0.0
        self._stopping = asyncio.Event()
        registry = registry if registry is not None else get_registry()
        self._m_lag = registry.gauge(
            "repro_replication_lag_seconds",
            "Wall-clock age of the last WAL record applied by this follower.",
        )
        self._m_records = registry.counter(
            "repro_replication_records_total",
            "Primary WAL records applied by this follower.",
        )
        self._m_offset = registry.gauge(
            "repro_replication_offset_bytes",
            "Byte offset of this follower in the primary's WAL.",
        )

    def poll_once(self) -> int:
        """Apply every complete record past the current offset; returns count."""
        records, new_offset = read_available(self.wal_path, self.offset)
        for payload, _ in records:
            apply_wal_record(self.state, payload)
            self.records_applied += 1
            self._m_records.inc()
            # Lag = wall-clock age of the record at apply time.  The
            # primary stamps ``ts`` at append; one shared host (the
            # file-tailing deployment) means one clock.
            timestamp = payload.get("ts")
            if timestamp is not None:
                self.lag_seconds = max(0.0, time.time() - float(timestamp))
                self._m_lag.set(self.lag_seconds)
        if new_offset != self.offset:
            self.offset = new_offset
            self._m_offset.set(new_offset)
        elif not records:
            # Caught up and idle: lag is bounded by the poll cadence, not
            # by the age of a record applied long ago.
            self.lag_seconds = 0.0
            self._m_lag.set(0.0)
        return len(records)

    async def run(self) -> None:
        """Poll until :meth:`stop` — the follower's replication loop."""
        while not self._stopping.is_set():
            self.poll_once()
            try:
                await asyncio.wait_for(
                    self._stopping.wait(), timeout=self.poll_interval
                )
            except asyncio.TimeoutError:
                continue

    def stop(self) -> None:
        self._stopping.set()

    def stats(self) -> dict:
        return {
            "wal_path": self.wal_path,
            "offset": self.offset,
            "records_applied": self.records_applied,
            "lag_seconds": self.lag_seconds,
        }


def open_follower_server(
    data_dir: str,
    registry: Optional[MetricsRegistry] = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
) -> tuple:
    """Open a read-only follower over a primary's data directory.

    Returns ``(state, tailer)``: the server restored from the primary's
    latest snapshot (read-only — no :class:`DurableStore`; the primary
    owns the directory) and a tailer positioned at the snapshot's
    ``wal_offset``.  An initial catch-up poll runs synchronously so the
    follower is current as of open before it serves a single request.
    """
    loaded = load_latest_snapshot(data_dir)
    if loaded is None:
        raise RecoveryError(
            f"{data_dir} holds no readable snapshot to start a follower from"
        )
    snapshot, _ = loaded
    state = restore_server(snapshot, registry=registry, read_only=True)
    tailer = FollowerTailer(
        state,
        data_dir,
        offset=int(snapshot.get("wal_offset", 0)),
        poll_interval=poll_interval,
        registry=registry,
    )
    tailer.poll_once()
    return state, tailer


async def serve_follower(
    data_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[MetricsRegistry] = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
) -> tuple:
    """Start a follower server plus its replication task.

    Returns ``(asyncio server, state, tailer, replication task, port)``.
    The caller owns shutdown: ``tailer.stop()``, await the task, close the
    server.
    """
    state, tailer = open_follower_server(
        data_dir, registry=registry, poll_interval=poll_interval
    )
    server, state, bound_port = await start_server(
        state.database, host, port, state=state
    )
    task = asyncio.create_task(tailer.run())
    return server, state, tailer, task, bound_port


async def _follower_smoke(
    primary: QueryServer, data_dir: str, clients: int, k: Optional[int]
) -> dict:
    from repro.service.server import fetch_first_k

    server, state, tailer, task, port = await serve_follower(
        data_dir, poll_interval=0.01
    )
    try:
        per_client = await asyncio.gather(
            *(
                fetch_first_k("127.0.0.1", port, k, chunk=3)
                for _ in range(clients)
            )
        )
        # A mutation on the primary must reach the follower: ingest one
        # duplicate tuple (valid against any schema) and wait for the
        # offset to advance.
        source = next(iter(primary.database.relations[0]))
        await primary.handle_request(
            {
                "op": "ingest",
                "tuples": [
                    [source.relation_name, [str(v) for v in source.values]]
                ],
            }
        )
        primary.store.wal.sync()
        target = primary.store.wal.offset
        deadline = time.monotonic() + 5.0
        while tailer.offset < target:
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise AssertionError(
                    f"follower stalled at {tailer.offset} < {target}"
                )
            await asyncio.sleep(0.01)
        refused = await state.handle_request(
            {"op": "ingest", "tuples": [["X", ["v"]]]}
        )
        assert refused.get("read_only") is True, refused
        replicated = state.maintainer.arrivals_applied
    finally:
        tailer.stop()
        await task
        server.close()
        await server.wait_closed()
    return {
        "per_client": per_client,
        "replicated_arrivals": replicated,
        **tailer.stats(),
    }


def run_follower_smoke(
    primary: QueryServer, data_dir: str, clients: int = 4, k: Optional[int] = None
) -> dict:
    """Follower parity check behind ``repro serve --follow --smoke-clients``.

    Serves ``clients`` concurrent read-only first-``k`` sessions from a
    follower of ``data_dir``, asserts every client matches the primary's
    own result sequence, that a primary-side ingest replicates, and that
    the follower refuses writes.  Raises ``AssertionError`` on mismatch.
    """
    from repro.core.full_disjunction import full_disjunction_sets

    serial = []
    for tuple_set in full_disjunction_sets(primary.database):
        if k is not None and len(serial) >= k:
            break
        serial.append(sorted(t.label for t in tuple_set))
    outcome = asyncio.run(_follower_smoke(primary, data_dir, clients, k))
    for index, received in enumerate(outcome["per_client"]):
        assert received == serial, (
            f"follower client {index} diverged from the primary: "
            f"{len(received)} vs {len(serial)} results"
        )
    assert outcome["replicated_arrivals"] >= 1
    return outcome
