"""The asyncio JSON-lines server: concurrent clients, parity, fairness."""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest

from repro.core.full_disjunction import full_disjunction_sets
from repro.service.server import (
    QueryServer,
    SessionDriver,
    client_call,
    fetch_first_k,
    open_routing_key,
    run_smoke,
    start_server,
)
from repro.service.session import open_session
from repro.workloads.generators import chain_database, star_database
from repro.workloads.streaming import streaming_chain_workload
from repro.workloads.tourist import tourist_database


def _serial_labels(database, k=None):
    out = []
    for tuple_set in full_disjunction_sets(database):
        out.append(sorted(t.label for t in tuple_set))
        if k is not None and len(out) == k:
            break
    return out


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_server(database, scenario):
    server, state, port = await start_server(database)
    try:
        return await scenario(state, port)
    finally:
        server.close()
        await server.wait_closed()


class TestServer:
    def test_four_concurrent_clients_match_serial(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        serial = _serial_labels(database)

        async def scenario(state, port):
            return await asyncio.gather(
                *(fetch_first_k("127.0.0.1", port, None, chunk=3) for _ in range(4))
            )

        per_client = _run(_with_server(database, scenario))
        assert len(per_client) == 4
        for received in per_client:
            assert received == serial

    def test_identical_queries_share_the_prefix_cache(self):
        database = tourist_database()

        async def scenario(state, port):
            await asyncio.gather(
                *(fetch_first_k("127.0.0.1", port, 4) for _ in range(3))
            )
            return state.cache.stats()

        stats = _run(_with_server(database, scenario))
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_first_k_then_resume_on_one_connection(self):
        database = chain_database(
            relations=3, tuples_per_relation=5, domain_size=3, null_rate=0.2, seed=7
        )
        serial = _serial_labels(database)

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer, {"op": "open", "engine": "fd"}
                )
                session = opened["session"]
                first = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 3}
                )
                peeked = await client_call(
                    reader, writer, {"op": "peek", "session": session}
                )
                rest = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 1000}
                )
                return first, peeked, rest
            finally:
                writer.close()
                await writer.wait_closed()

        first, peeked, rest = _run(_with_server(database, scenario))
        assert first["results"] == serial[:3]
        assert peeked["result"] == serial[3]
        assert first["results"] + rest["results"] == serial
        assert rest["exhausted"]

    def test_stream_sessions_observe_ingest(self):
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=3, seed=3
        )

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer, {"op": "open", "engine": "stream"}
                )
                session = opened["session"]
                base = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 10_000}
                )
                arrival = workload.arrivals[0]
                ingested = await client_call(
                    reader,
                    writer,
                    {
                        "op": "ingest",
                        "tuples": [[arrival.relation_name, list(arrival.values)]],
                    },
                )
                fresh = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 10_000}
                )
                return base, ingested, fresh
            finally:
                writer.close()
                await writer.wait_closed()

        base, ingested, fresh = _run(_with_server(workload.database, scenario))
        assert ingested["ok"] and ingested["applied"] == 1
        assert len(fresh["results"]) == ingested["new_results"]
        assert not any(r in base["results"] for r in fresh["results"])

    def test_ingest_invalidates_cached_fd_sessions(self):
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=2, seed=3
        )

        async def scenario(state, port):
            await fetch_first_k("127.0.0.1", port, None)
            arrival = workload.arrivals[0]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                await client_call(
                    reader,
                    writer,
                    {
                        "op": "ingest",
                        "tuples": [[arrival.relation_name, list(arrival.values)]],
                    },
                )
            finally:
                writer.close()
                await writer.wait_closed()
            after = await fetch_first_k("127.0.0.1", port, None)
            return state.cache.stats(), after

        stats, after = _run(_with_server(workload.database, scenario))
        assert stats["misses"] == 2  # the post-ingest open recomputed
        assert stats["invalidations"] == 1
        assert after == _serial_labels(workload.database)

    def test_in_flight_session_straddling_ingest_fails_fast(self):
        """No chimera streams: a half-consumed query dies at the generation
        change instead of mixing pre- and post-ingest results."""
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=2, seed=3
        )

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer, {"op": "open", "engine": "fd"}
                )
                session = opened["session"]
                prefix = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 2}
                )
                arrival = workload.arrivals[0]
                ingested = await client_call(
                    reader,
                    writer,
                    {
                        "op": "ingest",
                        "tuples": [[arrival.relation_name, list(arrival.values)]],
                    },
                )
                stale = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 1000}
                )
                reopened = await client_call(
                    reader, writer, {"op": "open", "engine": "fd"}
                )
                fresh = await client_call(
                    reader, writer,
                    {"op": "next", "session": reopened["session"], "k": 1000},
                )
                return prefix, ingested, stale, fresh
            finally:
                writer.close()
                await writer.wait_closed()

        prefix, ingested, stale, fresh = _run(
            _with_server(workload.database, scenario)
        )
        assert ingested["invalidated_queries"] == 1
        assert not stale["ok"] and "generation" in stale["error"]
        assert len(prefix["results"]) == 2
        # The reopened query serves exactly the post-ingest serial stream.
        assert fresh["results"] == _serial_labels(workload.database)

    def test_errors_are_reported_not_fatal(self):
        database = tourist_database()

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                bad_json = await client_call(reader, writer, {"op": "nonsense"})
                writer.write(b"this is not json\n")
                await writer.drain()
                garbled = json.loads(await reader.readline())
                missing = await client_call(
                    reader, writer, {"op": "next", "session": "nope", "k": 1}
                )
                still_alive = await client_call(reader, writer, {"op": "ping"})
                return bad_json, garbled, missing, still_alive
            finally:
                writer.close()
                await writer.wait_closed()

        bad_json, garbled, missing, still_alive = _run(
            _with_server(database, scenario)
        )
        assert not bad_json["ok"] and "unknown op" in bad_json["error"]
        assert not garbled["ok"] and "bad JSON" in garbled["error"]
        assert not missing["ok"] and "no session" in missing["error"]
        assert still_alive["ok"] and still_alive["pong"]

    def test_disconnect_releases_the_connections_sessions(self):
        """Dropping the socket without a close op must not leak sessions."""
        database = tourist_database()

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await client_call(reader, writer, {"op": "open", "engine": "fd"})
            await client_call(reader, writer, {"op": "open", "engine": "stream"})
            assert len(state._sessions) == 2
            writer.close()  # no 'close' ops — just drop the connection
            await writer.wait_closed()
            for _ in range(50):
                if not state._sessions:
                    break
                await asyncio.sleep(0.01)
            return len(state._sessions)

        assert _run(_with_server(database, scenario)) == 0

    def test_peer_reset_is_a_disconnect(self):
        """A client that resets its socket must not crash the handler."""
        database = tourist_database()

        async def scenario(state, port):
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _, context: errors.append(context))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            await client_call(reader, writer, {"op": "open", "engine": "fd"})
            assert len(state._sessions) == 1
            # SO_LINGER 0 makes close() send a reset instead of a FIN.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.transport.abort()
            for _ in range(100):
                if not state._sessions:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # let a crashing handler report
            return len(state._sessions), errors

        sessions, errors = _run(_with_server(database, scenario))
        assert sessions == 0
        assert errors == []

    def test_unknown_engine_is_refused(self):
        database = tourist_database()

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                return await client_call(
                    reader, writer, {"op": "open", "engine": "mystery"}
                )
            finally:
                writer.close()
                await writer.wait_closed()

        reply = _run(_with_server(database, scenario))
        assert not reply["ok"] and "unknown engine" in reply["error"]


class TestRankedServing:
    @staticmethod
    def _importance(database):
        from repro.service.server import smoke_importance_map

        return smoke_importance_map(database)

    def test_ranked_session_scores_match_an_in_process_top_k(self):
        from repro.core.priority import top_k
        from repro.core.ranking import MaxRanking

        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        importance = self._importance(database)
        expected = [
            {"labels": sorted(t.label for t in ts), "score": score}
            for ts, score in top_k(
                database, MaxRanking(importance), 5
            )
        ]

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked", "importance": importance},
                )
                assert opened["ok"] and opened["ranked"]
                first = await client_call(
                    reader, writer,
                    {"op": "next", "session": opened["session"], "k": 2},
                )
                peeked = await client_call(
                    reader, writer, {"op": "peek", "session": opened["session"]}
                )
                rest = await client_call(
                    reader, writer,
                    {"op": "next", "session": opened["session"], "k": 3},
                )
                return first, peeked, rest
            finally:
                writer.close()
                await writer.wait_closed()

        first, peeked, rest = _run(_with_server(database, scenario))
        assert first["results"] == expected[:2]
        assert peeked["result"] == expected[2]
        assert first["results"] + rest["results"] == expected

    def test_identical_importance_maps_share_the_cached_ranked_log(self):
        database = tourist_database()
        importance = self._importance(database)

        async def scenario(state, port):
            for _ in range(3):
                await fetch_first_k(
                    "127.0.0.1", port, 4, engine="ranked", importance=importance
                )
            return state.cache.stats()

        stats = _run(_with_server(database, scenario))
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_typod_importance_map_is_a_client_error_not_a_wrong_answer(self):
        database = tourist_database()
        importance = self._importance(database)
        importance["cl1"] = importance.pop("c1")  # the typo'd map

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                refused = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked", "importance": importance},
                )
                missing = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked",
                     "importance": {"c1": 1.0}},
                )
                not_a_map = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked", "importance": [1, 2]},
                )
                bad_value = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked",
                     "importance": {"c1": "four stars"}},
                )
                bare_default = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked", "default": 5.0},
                )
                still_alive = await client_call(reader, writer, {"op": "ping"})
                return (refused, missing, not_a_map, bad_value, bare_default,
                        still_alive)
            finally:
                writer.close()
                await writer.wait_closed()

        refused, missing, not_a_map, bad_value, bare_default, still_alive = _run(
            _with_server(database, scenario)
        )
        assert not refused["ok"] and "cl1" in refused["error"]
        assert not missing["ok"] and "no entry" in missing["error"]
        assert not not_a_map["ok"] and "label" in not_a_map["error"]
        assert not bad_value["ok"] and "numbers" in bad_value["error"]
        # A default without a map would be silently meaningless — refused.
        assert not bare_default["ok"] and "importance" in bare_default["error"]
        assert still_alive["ok"]

    def test_partial_importance_map_works_with_an_explicit_default(self):
        database = tourist_database()

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked",
                     "importance": {"a1": 9.0}, "default": 0.0},
                )
                top = await client_call(
                    reader, writer,
                    {"op": "next", "session": opened["session"], "k": 1},
                )
                return opened, top
            finally:
                writer.close()
                await writer.wait_closed()

        opened, top = _run(_with_server(database, scenario))
        assert opened["ok"]
        assert top["results"][0]["score"] == 9.0
        assert "a1" in top["results"][0]["labels"]

    def test_ingest_invalidates_ranked_cached_sessions_fail_fast(self):
        """StaleResultLog fail-fast semantics extend to ranked cursors."""
        workload = streaming_chain_workload(
            relations=3, base_tuples=4, arrivals=2, seed=3
        )
        database = workload.database
        importance_of = self._importance

        async def scenario(state, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                opened = await client_call(
                    reader, writer,
                    {"op": "open", "engine": "ranked",
                     "importance": importance_of(database), "default": 0.0},
                )
                session = opened["session"]
                prefix = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 2}
                )
                arrival = workload.arrivals[0]
                ingested = await client_call(
                    reader, writer,
                    {"op": "ingest",
                     "tuples": [[arrival.relation_name, list(arrival.values)]]},
                )
                stale = await client_call(
                    reader, writer, {"op": "next", "session": session, "k": 1000}
                )
                return prefix, ingested, stale
            finally:
                writer.close()
                await writer.wait_closed()

        prefix, ingested, stale = _run(_with_server(database, scenario))
        assert len(prefix["results"]) == 2
        assert ingested["invalidated_queries"] >= 1
        assert not stale["ok"] and "generation" in stale["error"]


class TestSmokeHarness:
    def test_run_smoke_passes_on_parity(self):
        outcome = run_smoke(tourist_database(), clients=4)
        assert outcome["clients"] == 4
        assert outcome["results_per_client"] == 6
        assert outcome["cache"]["hits"] >= 3

    def test_run_smoke_with_first_k(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        outcome = run_smoke(database, clients=5, k=7)
        assert outcome["results_per_client"] == 7

    def test_run_smoke_with_k_zero_is_a_clean_empty_parity(self):
        outcome = run_smoke(tourist_database(), clients=4, k=0)
        assert outcome["results_per_client"] == 0

    def test_run_smoke_ranked_parity(self):
        outcome = run_smoke(tourist_database(), clients=4, engine="ranked")
        assert outcome["engine"] == "ranked"
        assert outcome["results_per_client"] == 6
        assert outcome["cache"]["hits"] >= 3

    def test_run_smoke_ranked_first_k(self):
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=2)
        outcome = run_smoke(database, clients=3, k=5, engine="ranked")
        assert outcome["results_per_client"] == 5

    def test_run_smoke_rejects_unknown_engines(self):
        with pytest.raises(ValueError, match="engine"):
            run_smoke(tourist_database(), clients=2, engine="mystery")


class TestSessionDriverFairness:
    def test_concurrent_drives_keep_sessions_within_one_step(self):
        """No session leads a live peer by more than one result."""
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        driver = SessionDriver()
        sessions = [
            open_session(database, "fd", name=f"s{i}")
            for i in range(3)
        ]
        progress = []
        originals = [s.next for s in sessions]

        def tracking(index):
            def wrapped(k=1):
                batch = originals[index](k)
                if batch:
                    progress.append(index)
                return batch
            return wrapped

        for index, session in enumerate(sessions):
            session.next = tracking(index)

        async def scenario():
            return await asyncio.gather(*(driver.drive(s, 6) for s in sessions))

        try:
            results = _run(scenario())
        finally:
            for session in sessions:
                session.close()
        assert all(len(r) == 6 for r in results)
        counts = [0, 0, 0]
        for index in progress:
            counts[index] += 1
            assert max(counts) - min(counts) <= 1, (
                f"unfair interleaving: {counts}"
            )
        assert dict(driver.steps) == {"s0": 6, "s1": 6, "s2": 6}

    def test_drive_yields_between_steps(self):
        """Concurrent drive() tasks interleave instead of running to completion."""
        database = star_database(spokes=3, tuples_per_relation=4, hub_domain=2, seed=1)
        driver = SessionDriver()
        order = []

        async def tracked(session, label, k):
            results = []
            while len(results) < k:
                batch = await driver.drive(session, 1)
                if not batch:
                    break
                results.extend(batch)
                order.append(label)
            return results

        async def scenario():
            sessions = [
                open_session(database, "fd", name=f"t{i}")
                for i in range(2)
            ]
            try:
                return await asyncio.gather(
                    tracked(sessions[0], "a", 5), tracked(sessions[1], "b", 5)
                )
            finally:
                for session in sessions:
                    session.close()

        first, second = asyncio.run(scenario())
        assert len(first) == len(second) == 5
        # Both labels appear in the first half of the trace: neither task
        # monopolized the loop for its whole prefix.
        assert {"a", "b"} <= set(order[:4])


#: The wire options each engine's ``open`` takes (besides ``format``, and
#: the E18 harness's ``use_index``, which every cache-backed engine takes).
WIRE_OPTIONS = {
    "fd": set(),
    "approx": {"threshold", "similarity"},
    "ranked": {"importance", "default", "k"},
    "stream": set(),
}


@pytest.mark.parametrize("engine", sorted(WIRE_OPTIONS))
def test_each_wire_engine_takes_the_options_its_run_reads(engine):
    """The wire check reads the in-process table of the options each
    engine's run reads: the two refuse the same options."""
    server = QueryServer(tourist_database())
    candidates = set().union(*WIRE_OPTIONS.values()) | {"block_size", "initialization", "ranking"}
    taken = {
        key
        for key in candidates
        if server._option_error({"op": "open", "engine": engine, key: None}) is None
    }
    assert taken == WIRE_OPTIONS[engine]


class TestOpenRoutingKey:
    """``open_routing_key`` names the computation an ``open`` asks for: the
    durable store keeps one persisted open per key."""

    def test_identical_opens_share_a_routing_key(self):
        first = {"op": "open", "engine": "fd"}
        second = {"engine": "fd", "op": "open"}
        assert open_routing_key(first) == open_routing_key(second)

    def test_different_queries_produce_different_keys(self):
        base = {"op": "open", "engine": "fd"}
        ranked = {"op": "open", "engine": "ranked", "importance": {"c1": 1.0}}
        assert open_routing_key(base) != open_routing_key(ranked)

    def test_the_rendering_and_unset_options_stay_out_of_the_key(self):
        bare = {"op": "open"}
        dressed = {"op": "open", "engine": "fd", "format": "padded", "threshold": None}
        assert open_routing_key(bare) == open_routing_key(dressed)
        assert open_routing_key(bare) != open_routing_key({"op": "open", "threshold": 0.5})

    def test_use_index_stays_out_of_the_key(self):
        """The E18 harness's ``use_index: true`` names no other query."""
        bare = {"op": "open", "engine": "fd"}
        assert open_routing_key(bare) == open_routing_key({**bare, "use_index": True})

    def test_a_server_persists_one_open_per_key(self):
        state = QueryServer(tourist_database())
        requests = [
            {"op": "open", "engine": "fd"},
            {"engine": "fd", "op": "open", "format": "padded"},
            {"op": "open", "engine": "approx", "threshold": 0.9},
        ]

        async def scenario():
            return [await state.handle_request(dict(request)) for request in requests]

        replies = _run(scenario())
        assert [reply["cached"] for reply in replies] == [False, True, False]
        persisted = [entry["request"] for entry in state.durable_state()["cached"]]
        assert len(persisted) == 2
        assert {open_routing_key(request) for request in persisted} == {
            open_routing_key(request) for request in requests
        }
