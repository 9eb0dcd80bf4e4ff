"""Crash recovery: snapshot + WAL replay rebuilds byte-identical servers.

Two layers of coverage:

* In-process: durable servers crashed by *dropping* them (no shutdown, no
  final snapshot), recovered, and compared stream-for-stream against an
  uninterrupted twin — including cached first-k prefixes served with zero
  recompute and torn WAL tails injected by hand.
* Kill-injection: a real child process SIGKILLed mid-ingest at seeded
  random points; the parent recovers its data directory and asserts the
  recovered server equals a twin that applied exactly the durable prefix.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.service.cache import database_generation
from repro.service.server import (
    QueryServer,
    open_durable_server,
    restore_server,
)
from repro.storage.store import RecoveryError
from repro.storage.wal import WAL_NAME, encode_frame, recover_wal

from tests.storage._workload import (
    TOTAL_OPS,
    build_database,
    op_request,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _run(coroutine):
    return asyncio.run(coroutine)


async def _apply_ops(state: QueryServer, count: int) -> None:
    for index in range(count):
        response = await state.handle_request(op_request(state.database, index))
        assert response.get("ok"), response


async def _fd_stream(state: QueryServer) -> tuple:
    opened = await state.handle_request({"op": "open", "engine": "fd"})
    assert opened.get("ok"), opened
    pulled = await state.handle_request(
        {"op": "next", "session": opened["session"], "k": 100_000}
    )
    assert pulled.get("ok"), pulled
    await state.handle_request({"op": "close", "session": opened["session"]})
    return opened, pulled["results"]


def _twin_after(count: int) -> QueryServer:
    """An uninterrupted in-memory server that applied ops ``0..count-1``."""
    twin = QueryServer(build_database())
    _run(_apply_ops(twin, count))
    return twin


class TestInProcessRecovery:
    def test_recovered_server_equals_uninterrupted_twin(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=5, registry=MetricsRegistry()
        )
        _run(_apply_ops(state, 12))
        generation = list(database_generation(state.database))
        del state  # crash: no shutdown, no final snapshot

        recovered = open_durable_server(
            None, str(tmp_path), registry=MetricsRegistry()
        )
        info = recovered.store.recovery_info
        assert info["recovered"] is True
        assert info["replayed_records"] < 12  # snapshots folded most of the WAL
        assert list(database_generation(recovered.database)) == generation
        _, recovered_stream = _run(_fd_stream(recovered))
        _, twin_stream = _run(_fd_stream(_twin_after(12)))
        assert recovered_stream == twin_stream

    def test_recovered_server_keeps_serving_durably(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=None,
            registry=MetricsRegistry(),
        )
        _run(_apply_ops(state, 6))
        del state
        recovered = open_durable_server(
            None, str(tmp_path), snapshot_every=None, registry=MetricsRegistry()
        )
        _run(
            _apply_ops_from(recovered, start=6, stop=10)
        )
        del recovered
        again = open_durable_server(
            None, str(tmp_path), snapshot_every=None, registry=MetricsRegistry()
        )
        _, stream = _run(_fd_stream(again))
        _, twin_stream = _run(_fd_stream(_twin_after(10)))
        assert stream == twin_stream

    def test_cached_prefix_survives_recovery_with_zero_recompute(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=None,
            registry=MetricsRegistry(),
        )
        opened, stream = _run(_fd_stream(state))
        assert opened["cached"] is False
        snapped = _run(state.handle_request({"op": "snapshot"}))
        assert snapped["ok"], snapped
        del state

        recovered = open_durable_server(
            None, str(tmp_path), registry=MetricsRegistry()
        )
        hits_before = recovered.cache.hits
        reopened, recovered_stream = _run(_fd_stream(recovered))
        assert reopened["cached"] is True  # served from the restored prefix
        assert recovered.cache.hits == hits_before + 1
        assert recovered_stream == stream

    def test_a_persisted_open_a_live_open_refuses_is_not_restored(self):
        """A snapshot can hold an ``fd`` open naming ``initialization``, an
        option no live ``open`` accepts, with its items in the reuse
        strategy's order.  Recovery skips that prefix: the plain ``fd`` open
        misses the cache and streams what a fresh server streams."""
        state = QueryServer(build_database())
        _, stream = _run(_fd_stream(state))
        snapshot = state.durable_state()
        (cached,) = snapshot["cached"]
        assert cached["request"] == {"engine": "fd"}
        cached["request"]["initialization"] = "previous-results"
        cached["items"].reverse()
        restored = restore_server(snapshot)
        assert restored.durable_state()["cached"] == []
        opened, restored_stream = _run(_fd_stream(restored))
        assert opened["cached"] is False
        assert restored_stream == stream

    def test_recovered_stream_session_serves_the_live_log(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=None,
            registry=MetricsRegistry(),
        )

        async def stream_scenario(server):
            opened = await server.handle_request({"op": "open", "engine": "stream"})
            assert opened.get("ok"), opened
            pulled = await server.handle_request(
                {"op": "next", "session": opened["session"], "k": 100_000}
            )
            return pulled["results"]

        base = _run(stream_scenario(state))
        assert base
        _run(_apply_ops(state, 4))
        snapped = _run(state.handle_request({"op": "snapshot"}))
        assert snapped["ok"], snapped
        del state

        recovered = open_durable_server(None, str(tmp_path), registry=MetricsRegistry())
        twin = _twin_after(4)
        assert _run(stream_scenario(recovered)) == _run(stream_scenario(twin))

    def test_torn_tail_is_truncated_and_prefix_recovered(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=None,
            registry=MetricsRegistry(),
        )
        _run(_apply_ops(state, 8))
        state.store.wal.sync()
        wal_path = state.store.wal.path
        del state
        # Crash mid-append: half a valid frame, then garbage.
        frame = encode_frame({"kind": "ingest", "ops": [], "generation": [0, 0, 0, 0]})
        with open(wal_path, "ab") as handle:
            handle.write(frame[: len(frame) - 4])

        recovered = open_durable_server(None, str(tmp_path), registry=MetricsRegistry())
        info = recovered.store.recovery_info
        assert info["truncated_bytes"] == len(frame) - 4
        assert info["replayed_records"] == 8
        _, stream = _run(_fd_stream(recovered))
        _, twin_stream = _run(_fd_stream(_twin_after(8)))
        assert stream == twin_stream

    def test_wal_without_snapshot_is_refused(self, tmp_path):
        with open(tmp_path / WAL_NAME, "wb") as handle:
            handle.write(
                encode_frame({"kind": "ingest", "ops": [], "generation": [0, 0, 0, 0]})
            )
        with pytest.raises(RecoveryError):
            open_durable_server(None, str(tmp_path), registry=MetricsRegistry())

    def test_empty_directory_without_database_is_refused(self, tmp_path):
        with pytest.raises(RecoveryError):
            open_durable_server(None, str(tmp_path), registry=MetricsRegistry())

    def test_replay_divergence_is_detected(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), snapshot_every=None,
            registry=MetricsRegistry(),
        )
        _run(_apply_ops(state, 3))
        state.store.wal.sync()
        wal_path = state.store.wal.path
        del state
        # Rewrite the last record with a wrong generation token: replay must
        # refuse to serve the divergent state.
        records, _, _ = recover_wal(wal_path)
        payload, _ = records[-1]
        start = records[-2][1]
        payload["generation"] = [9, 9, 9, 9]
        blob = open(wal_path, "rb").read()
        open(wal_path, "wb").write(blob[:start] + encode_frame(payload))
        with pytest.raises(RecoveryError, match="diverged"):
            open_durable_server(None, str(tmp_path), registry=MetricsRegistry())

    def test_restore_state_round_trips_the_database(self):
        database = build_database()
        state = QueryServer(database)
        _run(_apply_ops(state, 9))
        restored = Database.restore_state(database.snapshot_state())
        assert list(database_generation(restored)) == list(
            database_generation(database)
        )
        assert restored.snapshot_state() == database.snapshot_state()

    def test_restore_server_is_read_only_when_asked(self, tmp_path):
        state = open_durable_server(
            build_database(), str(tmp_path), registry=MetricsRegistry()
        )
        assert state.store is not None
        follower = restore_server(_latest_snapshot(tmp_path), read_only=True)
        refusal = _run(
            follower.handle_request({"op": "ingest", "tuples": [["S1", ["a", "b"]]]})
        )
        assert refusal == {
            "ok": False,
            "error": "ingest refused: this replica is read-only (follower mode)",
            "read_only": True,
        }
        snap_refusal = _run(follower.handle_request({"op": "snapshot"}))
        assert snap_refusal["ok"] is False


def _latest_snapshot(tmp_path):
    from repro.storage.snapshot import load_latest_snapshot

    document, _ = load_latest_snapshot(str(tmp_path))
    return document


async def _apply_ops_from(state: QueryServer, start: int, stop: int) -> None:
    for index in range(start, stop):
        response = await state.handle_request(op_request(state.database, index))
        assert response.get("ok"), response


class TestKillInjection:
    """SIGKILL a real serving process mid-ingest; recover; assert parity."""

    def _crashed_run(self, tmp_path, kill_after: int) -> None:
        process = subprocess.Popen(
            [sys.executable, "-m", "tests.storage._kill_child", str(tmp_path)],
            stdout=subprocess.PIPE,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
                ),
            },
            text=True,
        )
        try:
            applied = 0
            for line in process.stdout:
                if line.startswith("applied"):
                    applied += 1
                if applied >= kill_after:
                    break
            os.kill(process.pid, signal.SIGKILL)
        finally:
            process.stdout.close()
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sigkill_mid_ingest_recovers_to_the_durable_prefix(self, tmp_path, seed):
        kill_after = random.Random(seed).randint(1, TOTAL_OPS - 2)
        self._crashed_run(tmp_path, kill_after)

        # The WAL (not the child's stdout) is the ground truth of what
        # survived: one record per applied batch, torn tail truncated.
        records, _, _ = recover_wal(str(tmp_path / WAL_NAME))
        durable = len(records)
        assert durable >= kill_after  # apply-then-log: every acked op is on disk

        recovered = open_durable_server(None, str(tmp_path), registry=MetricsRegistry())
        assert recovered.store.recovery_info["recovered"] is True
        twin = _twin_after(durable)
        assert list(database_generation(recovered.database)) == list(
            database_generation(twin.database)
        )
        _, recovered_stream = _run(_fd_stream(recovered))
        _, twin_stream = _run(_fd_stream(twin))
        assert recovered_stream == twin_stream
        assert recovered.maintainer.arrivals_applied == twin.maintainer.arrivals_applied
        assert recovered.maintainer.mutations_applied == twin.maintainer.mutations_applied
