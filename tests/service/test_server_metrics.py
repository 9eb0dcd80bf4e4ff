"""Observability through the serving stack: live series and surfaces.

Every suite hands the servers *explicit* registries so the assertions are
isolated from the process-default one (and from each other).
"""

from __future__ import annotations

import asyncio
import json

from repro.obs import MetricsRegistry, PhaseTracer, start_sidecar, use_tracer
from repro.service.follower import open_follower_server
from repro.service.server import QueryServer, open_durable_server, server_stats
from repro.workloads.generators import star_database
from repro.workloads.tourist import tourist_database

from tests.storage._workload import op_request


def _run(coroutine):
    return asyncio.run(coroutine)


def _server(enabled=True):
    registry = MetricsRegistry(enabled=enabled)
    return QueryServer(tourist_database(), registry=registry), registry


async def _drain_one_session(state, k=3, engine="fd"):
    opened = await state.handle_request({"op": "open", "engine": engine})
    assert opened["ok"]
    await state.handle_request({"op": "next", "session": opened["session"], "k": k})
    return opened["session"]


class TestServerMetrics:
    def test_requests_and_latency_are_recorded_per_op(self):
        state, registry = _server()

        async def scenario():
            await _drain_one_session(state)
            await state.handle_request({"op": "warp"})

        _run(scenario())
        requests = registry.family("repro_requests_total")
        assert requests.labels(op="open").value == 1
        assert requests.labels(op="next").value == 1
        # An unknown op is counted under the bounded label "other".
        assert requests.labels(op="other").value == 1
        errors = registry.family("repro_request_errors_total")
        assert errors.labels(op="other", kind="client").value == 1
        assert errors.labels(op="open", kind="client").value == 0
        latency = registry.family("repro_request_latency_seconds")
        assert latency.labels(op="open").count == 1
        assert latency.labels(op="next").count == 1

    def test_engine_latency_histograms_by_phase(self):
        state, registry = _server()

        async def scenario():
            session = await _drain_one_session(state, engine="fd")
            await state.handle_request({"op": "next", "session": session, "k": 2})

        _run(scenario())
        engine_latency = registry.family("repro_engine_latency_seconds")
        assert engine_latency.labels(engine="fd", phase="open").count == 1
        assert engine_latency.labels(engine="fd", phase="next").count == 2

    def test_cache_counters_flow_into_the_registry(self):
        state, registry = _server()

        async def scenario():
            for _ in range(3):
                await state.handle_request({"op": "open", "engine": "fd"})

        _run(scenario())
        assert registry.family("repro_cache_misses_total").value == 1
        assert registry.family("repro_cache_hits_total").value == 2
        assert registry.family("repro_cache_entries").value == 1

    def test_session_gauge_follows_open_and_close(self):
        state, registry = _server()

        async def scenario():
            opened = await state.handle_request({"op": "open", "engine": "fd"})
            mid = registry.family("repro_live_sessions").value
            await state.handle_request(
                {"op": "close", "session": opened["session"]}
            )
            return mid

        mid = _run(scenario())
        assert mid == 1
        assert registry.family("repro_live_sessions").value == 0

    def test_ingest_sets_the_lag_gauge_and_invalidations_count(self):
        state, registry = _server()

        async def scenario():
            await state.handle_request({"op": "open", "engine": "fd"})
            return await state.handle_request(
                {"op": "ingest", "tuples": [["Climates", ["norway", "cold"]]]}
            )

        response = _run(scenario())
        assert response["ok"]
        lag = registry.family("repro_ingest_lag_seconds")
        assert 0 <= lag.value < 5.0
        assert registry.family("repro_cache_invalidations_total").value == 1

    def test_stats_detail_metrics_ships_the_snapshot(self):
        state, registry = _server()

        async def scenario():
            await _drain_one_session(state)
            plain = await state.handle_request({"op": "stats"})
            detailed = await state.handle_request(
                {"op": "stats", "detail": "metrics"}
            )
            return plain, detailed

        plain, detailed = _run(scenario())
        assert "metrics" not in plain
        assert plain["uptime_seconds"] >= 0
        assert plain["epoch"] == 0
        snapshot = detailed["metrics"]
        json.dumps(snapshot)  # wire-safe
        names = {family["name"] for family in snapshot["families"]}
        assert "repro_request_latency_seconds" in names
        assert "repro_cache_hits_total" in names

    def test_render_metrics_and_health_surfaces(self):
        state, registry = _server()

        async def scenario():
            await _drain_one_session(state)

        _run(scenario())
        page = state.render_metrics()
        assert 'repro_requests_total{op="open"} 1' in page
        assert "repro_request_latency_seconds_bucket" in page
        health = state.health()
        assert health["status"] == "ok"
        assert health["sessions"] == 1
        assert health["epoch"] == 0
        assert "kernel" not in health and health["uptime_seconds"] >= 0

    def test_server_stats_helper_is_the_stats_op_shape(self):
        state, _ = _server()

        async def scenario():
            await _drain_one_session(state)
            return await state.handle_request({"op": "stats"})

        wire = _run(scenario())
        helper = server_stats(state)
        assert set(helper) | {"ok"} == set(wire)
        assert helper["requests"] == wire["requests"]

    def test_disabled_registry_serves_identically_and_renders_empty(self):
        enabled_state, _ = _server(enabled=True)
        disabled_state, _ = _server(enabled=False)

        async def scenario(state):
            session = await _drain_one_session(state, k=1000)
            reply = await state.handle_request(
                {"op": "next", "session": session, "k": 1000}
            )
            return reply

        on = _run(scenario(enabled_state))
        off = _run(scenario(disabled_state))
        assert on == off
        assert disabled_state.render_metrics() == ""
        assert disabled_state.health()["status"] == "ok"

    def test_request_spans_land_on_the_active_tracer(self):
        state, _ = _server()
        tracer = PhaseTracer()

        async def scenario():
            with use_tracer(tracer):
                await _drain_one_session(state)

        _run(scenario())
        names = [event["name"] for event in tracer.events()]
        assert "op.open" in names
        assert "op.next" in names
        assert "cache.open" in names


async def _scrape(port, path):
    """One HTTP GET against a sidecar: ``(status, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


class TestSidecarSurfaces:
    """The sidecar serves a server's own ``render_metrics`` and ``health``,
    the plain methods ``repro serve --metrics-port`` hands it, for a
    primary and a follower alike; every scrape reads the live state."""

    def test_a_primary_is_scraped_live(self):
        state, _ = _server()

        async def scenario():
            sidecar = await start_sidecar(state.render_metrics, state.health)
            try:
                session = await _drain_one_session(state)
                during = await _scrape(sidecar.port, "/metrics")
                health = await _scrape(sidecar.port, "/health")
                await state.handle_request({"op": "close", "session": session})
                after = await _scrape(sidecar.port, "/metrics")
                return during, health, after
            finally:
                await sidecar.close()

        (m_status, during), (h_status, health), (_, after) = _run(scenario())
        assert m_status == h_status == 200
        assert 'repro_requests_total{op="open"} 1' in during
        assert "repro_live_sessions 1" in during
        assert "repro_live_sessions 0" in after
        health = json.loads(health)
        assert health["status"] == "ok"
        assert health["sessions"] == 1 and health["requests"] == 2

    def test_a_follower_is_scraped_with_its_replication_series(self, tmp_path):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=3)
        primary = open_durable_server(
            database, str(tmp_path), registry=MetricsRegistry(), snapshot_every=None
        )
        follower, tailer = open_follower_server(
            str(tmp_path), registry=MetricsRegistry(enabled=True)
        )

        async def scenario():
            for index in range(3):
                applied = await primary.handle_request(
                    op_request(primary.database, index)
                )
                assert applied.get("ok"), applied
            primary.store.wal.sync()
            assert tailer.poll_once() == 3
            sidecar = await start_sidecar(follower.render_metrics, follower.health)
            try:
                return (
                    await _scrape(sidecar.port, "/metrics"),
                    await _scrape(sidecar.port, "/health"),
                )
            finally:
                await sidecar.close()

        try:
            (m_status, page), (h_status, health) = _run(scenario())
        finally:
            primary.shutdown()
        assert m_status == h_status == 200
        assert "repro_replication_records_total 3" in page
        assert f"repro_replication_offset_bytes {tailer.offset}" in page
        health = json.loads(health)
        assert health["status"] == "ok"
        assert health["epoch"] == primary.database.epoch == follower.database.epoch
