"""Observability through the serving stack: live series, surfaces, routers.

Every suite hands the servers *explicit* registries so the assertions are
isolated from the process-default one (and from each other).
"""

from __future__ import annotations

import asyncio
import json

from repro.obs import MetricsRegistry, PhaseTracer, use_tracer
from repro.service.server import QueryServer, server_stats
from repro.service.sharding import ShardedQueryServer, ShardHandle
from repro.workloads.tourist import tourist_database


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
        assert errors.labels(op="other").value == 1
        assert errors.labels(op="open").value == 0
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
        assert "kernel" in health and health["uptime_seconds"] >= 0

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


class _MetricShard(ShardHandle):
    """An in-process shard with its own registry, like a real shard process."""

    def __init__(self, index, database, registry):
        super().__init__(index, process=None, host="", port=0)
        self.state = QueryServer(database, registry=registry)

    async def call(self, request):
        self.requests += 1
        return await self.state.handle_request(request)


def _metric_router(shards=2):
    database = tourist_database()
    shard_registries = [MetricsRegistry(enabled=True) for _ in range(shards)]
    handles = [
        _MetricShard(index, database, registry)
        for index, registry in enumerate(shard_registries)
    ]
    router_registry = MetricsRegistry(enabled=True)
    router = ShardedQueryServer(handles, registry=router_registry)
    return router, handles, router_registry


class TestRouterMetrics:
    def test_stats_carries_the_router_level_aggregates(self):
        router, _, _ = _metric_router()

        async def scenario():
            opened = await router.handle_request({"op": "open", "engine": "fd"})
            await router.handle_request(
                {"op": "next", "session": opened["session"], "k": 2}
            )
            return await router.handle_request({"op": "stats"})

        stats = _run(scenario())
        assert stats["uptime_seconds"] >= 0
        assert stats["sessions_total"] == 1
        # open + next, as counted by the shard servers themselves (their
        # stats round trips excluded: they are counted on the *next* call).
        assert stats["requests_aggregate"] >= 2
        assert all(
            "server_requests" in entry for entry in stats["per_shard"]
        )

    def test_metrics_detail_merges_shard_registries_with_attribution(self):
        router, _, _ = _metric_router()

        async def scenario():
            for _ in range(2):
                await router.handle_request({"op": "open", "engine": "fd"})
            detailed = await router.handle_request(
                {"op": "stats", "detail": "metrics"}
            )
            page = await router.render_metrics()
            return detailed, page

        detailed, page = _run(scenario())
        json.dumps(detailed["metrics"])
        # Identical opens share one shard: its cache shows a hit, the other
        # stays at zero, and both replicas stay distinguishable by label.
        assert 'repro_router_requests_total{shard="router"} 3' in page
        hit_lines = [
            line
            for line in page.splitlines()
            if line.startswith("repro_cache_hits_total")
        ]
        assert len(hit_lines) == 2
        assert sorted(int(line.rsplit(" ", 1)[1]) for line in hit_lines) == [0, 1]
        assert 'shard="0"' in page and 'shard="1"' in page

    def test_busy_rejections_and_session_gauges(self):
        router, _, registry = _metric_router()
        router.max_sessions_per_shard = 1

        async def scenario():
            first = await router.handle_request({"op": "open", "engine": "fd"})
            refused = await router.handle_request({"op": "open", "engine": "fd"})
            return first, refused

        first, refused = _run(scenario())
        assert first["ok"] and refused.get("busy") is True
        assert registry.family("repro_router_busy_rejections_total").value == 1
        assert registry.family("repro_router_sessions").value == 1
        shard_gauge = registry.family("repro_router_shard_sessions")
        assert shard_gauge.labels(shard=first["shard"]).value == 1

    def test_health_reports_every_shard_alive(self):
        router, _, _ = _metric_router(shards=3)
        health = _run(router.health())
        assert health["status"] == "ok"
        assert [entry["alive"] for entry in health["shards"]] == [True] * 3
        assert health["uptime_seconds"] >= 0
