"""Careless clients and server faults.

A request line longer than ``MAX_LINE_BYTES`` gets a clear error and a
closed connection instead of killing the handler, a ``next`` with a junk
``k`` is refused as the client's error and a huge one is served
``MAX_NEXT_K`` results at a time, junk ops or engine names cannot grow the
metric label sets, and an exception escaping a handler is logged with its
traceback while the connection keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro.obs import MetricsRegistry
from repro.service.server import (
    LINE_TOO_LONG,
    MAX_LINE_BYTES,
    MAX_NEXT_K,
    QueryServer,
    client_call,
    start_server,
)
from repro.service import server as server_module
from repro.service import sharding
from repro.service.sharding import start_sharded_server
from repro.workloads.tourist import tourist_database


def _run(coroutine):
    return asyncio.run(coroutine)


def _ping_line(length: int) -> bytes:
    """A ``ping`` request whose line is ``length`` bytes before the newline."""
    base = json.dumps({"op": "ping", "pad": ""})
    line = json.dumps({"op": "ping", "pad": "x" * (length - len(base))})
    assert len(line) == length
    return line.encode() + b"\n"


async def _connect(port):
    return await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)


async def _with_server(scenario):
    server, state, port = await start_server(tourist_database())
    try:
        return await scenario(state, port)
    finally:
        server.close()
        await server.wait_closed()


class TestOversizedLines:
    def test_line_one_byte_over_the_limit_is_answered_and_the_connection_closed(self):
        async def scenario(state, port):
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _, context: errors.append(context))
            reader, writer = await _connect(port)
            opened = await client_call(reader, writer, {"op": "open", "engine": "fd"})
            assert opened["ok"] and len(state._sessions) == 1
            writer.write(_ping_line(MAX_LINE_BYTES + 1))
            await writer.drain()
            reply = json.loads(await reader.readline())
            closed = await reader.read()  # the server hangs up after replying
            writer.close()
            for _ in range(100):
                if not state._sessions:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # let a crashing handler report
            reader, writer = await _connect(port)
            pong = await client_call(reader, writer, {"op": "ping"})
            writer.close()
            await writer.wait_closed()
            return reply, closed, len(state._sessions), errors, pong

        reply, closed, sessions, errors, pong = _run(_with_server(scenario))
        assert reply == LINE_TOO_LONG
        assert reply["error"] == f"request line exceeds {MAX_LINE_BYTES} bytes"
        assert closed == b""
        assert sessions == 0
        assert errors == []
        assert pong == {"ok": True, "pong": True}

    def test_line_at_the_limit_is_served(self):
        async def scenario(state, port):
            reader, writer = await _connect(port)
            writer.write(_ping_line(MAX_LINE_BYTES))
            await writer.drain()
            reply = json.loads(await reader.readline())
            again = await client_call(reader, writer, {"op": "ping"})
            writer.close()
            await writer.wait_closed()
            return reply, again

        reply, again = _run(_with_server(scenario))
        assert reply == {"ok": True, "pong": True}
        assert again == {"ok": True, "pong": True}

    def test_router_carries_lines_over_the_asyncio_default(self):
        """A 100 KiB ingest line and a reply over 64 KiB cross the router,
        and the router refuses a line over the limit like a server."""
        wide = "x" * 2600
        tuples = [["Climates", [f"land{i}", wide]] for i in range(40)]

        async def scenario():
            server, router, port = await start_sharded_server(
                tourist_database(), shards=2
            )
            try:
                reader, writer = await _connect(port)
                ingested = await client_call(
                    reader, writer, {"op": "ingest", "tuples": tuples}
                )
                opened = await client_call(
                    reader, writer, {"op": "open", "engine": "fd", "format": "padded"}
                )
                pulled = await client_call(
                    reader, writer, {"op": "next", "session": opened["session"], "k": 100}
                )
                writer.write(_ping_line(MAX_LINE_BYTES + 1))
                await writer.drain()
                refused = json.loads(await reader.readline())
                closed = await reader.read()
                writer.close()
                await writer.wait_closed()
                reader, writer = await _connect(port)
                pong = await client_call(reader, writer, {"op": "ping"})
                writer.close()
                await writer.wait_closed()
                return ingested, pulled, refused, closed, pong
            finally:
                server.close()
                await server.wait_closed()
                await router.shutdown()

        ingested, pulled, refused, closed, pong = _run(scenario())
        assert len(json.dumps({"op": "ingest", "tuples": tuples})) > 100 * 1024
        assert ingested["ok"] and ingested["shards_applied"] == 2
        assert pulled["ok"]
        assert len(json.dumps(pulled)) > 64 * 1024
        wide_rows = [r for r in pulled["results"] if r["row"]["Climate"] == wide]
        assert len(wide_rows) == 40
        assert refused == LINE_TOO_LONG and closed == b""
        assert pong["ok"] and pong["pong"]


async def _with_router(scenario):
    server, router, port = await start_sharded_server(tourist_database(), shards=2)
    try:
        reader, writer = await _connect(port)
        try:
            return await scenario(reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()
    finally:
        server.close()
        await server.wait_closed()
        await router.shutdown()


class TestRouterUpstream:
    """The router's lines to its shards stay within the shards' limit, and a
    shard reply over the router's own limit cannot answer a later request."""

    def test_request_that_outgrows_the_limit_when_re_encoded_is_refused(self):
        # UTF-8 "é" is two bytes on the client's line and six ("\u00e9") in
        # the router's re-encoding for the shards.
        def ingest(climate):
            return {"op": "ingest", "tuples": [["Climates", ["Atlantis", climate]]]}

        base = len(json.dumps(ingest(""), ensure_ascii=False).encode())
        request = ingest("é" * ((MAX_LINE_BYTES - base) // 2))
        line = json.dumps(request, ensure_ascii=False).encode()
        assert MAX_LINE_BYTES - 2 < len(line) <= MAX_LINE_BYTES
        assert len(json.dumps(request)) > MAX_LINE_BYTES

        async def scenario(reader, writer):
            writer.write(line + b"\n")
            await writer.drain()
            refused = json.loads(await reader.readline())
            ingested = await client_call(reader, writer, ingest("mild"))
            opened = await client_call(reader, writer, {"op": "open", "engine": "fd"})
            pulled = await client_call(
                reader, writer, {"op": "next", "session": opened["session"], "k": 3}
            )
            return refused, ingested, pulled

        refused, ingested, pulled = _run(_with_router(scenario))
        assert refused == LINE_TOO_LONG
        assert ingested["ok"] and ingested["shards_applied"] == 2
        assert pulled["ok"] and len(pulled["results"]) == 3

    def test_reply_over_the_limit_drops_the_shard_connection(self, monkeypatch):
        # Only the router's limit shrinks; the shard processes keep theirs.
        # The ~390 KB reply is longer than one socket read (256 KiB), so the
        # router's read fails before the reply's end has arrived.
        monkeypatch.setattr(sharding, "MAX_LINE_BYTES", 64 * 1024)
        wide = "x" * 8000
        batches = [
            [["Climates", [f"land{i}", wide]] for i in range(start, start + 7)]
            for start in range(0, 49, 7)
        ]
        padded = {"op": "open", "engine": "fd", "format": "padded"}

        async def scenario(reader, writer):
            for batch in batches:
                ingested = await client_call(
                    reader, writer, {"op": "ingest", "tuples": batch}
                )
                assert ingested["ok"]
            opened = await client_call(reader, writer, padded)
            name = opened["session"]
            too_long = await client_call(
                reader, writer, {"op": "next", "session": name, "k": 100}
            )
            lost = await client_call(
                reader, writer, {"op": "next", "session": name, "k": 1}
            )
            reopened = await client_call(reader, writer, padded)
            pulled = await client_call(
                reader, writer, {"op": "next", "session": reopened["session"], "k": 2}
            )
            stats = await client_call(reader, writer, {"op": "stats"})
            return opened, too_long, lost, reopened, pulled, stats

        opened, too_long, lost, reopened, pulled, stats = _run(_with_router(scenario))
        assert too_long["ok"] is False
        assert f"shard {opened['shard']} connection dropped" in too_long["error"]
        assert lost == {"ok": False, "error": f"no session {opened['session']!r}"}
        assert reopened["ok"] and reopened["shard"] == opened["shard"]
        assert pulled["ok"] and len(pulled["results"]) == 2
        assert all(set(result) == {"labels", "row"} for result in pulled["results"])
        assert stats["sessions"] == 1


class TestServerFaults:
    def test_a_raising_handler_is_logged_and_the_connection_kept(
        self, monkeypatch, caplog
    ):
        async def broken(state, request, connection_sessions):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(QueryServer._OPS, "ping", broken)

        async def scenario(state, port):
            reader, writer = await _connect(port)
            try:
                faulted = await client_call(reader, writer, {"op": "ping"})
                served = await client_call(reader, writer, {"op": "stats"})
            finally:
                writer.close()
                await writer.wait_closed()
            return faulted, served

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            faulted, served = _run(_with_server(scenario))
        assert faulted == {"ok": False, "error": "injected fault"}
        assert served["ok"] and served["requests"] == 2
        records = [r for r in caplog.records if r.name == "repro.service.server"]
        assert len(records) == 1
        assert "'ping'" in records[0].getMessage()
        assert records[0].exc_info[0] is RuntimeError
        assert "injected fault" in caplog.text  # the traceback, not just the op

    def test_errors_count_server_faults_apart_from_client_errors(self, monkeypatch, caplog):
        async def broken(state, request, connection_sessions):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(QueryServer._OPS, "ping", broken)
        registry = MetricsRegistry()
        state = QueryServer(tourist_database(), registry=registry)

        async def scenario():
            server = await asyncio.start_server(state.handle_connection, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await _connect(port)
                try:
                    for request in ({"op": "warp"}, {"op": "ping"}):
                        await client_call(reader, writer, request)
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            _run(scenario())
        assert len(_server_faults(caplog)) == 1
        errors = registry.family("repro_request_errors_total").samples()
        counts = {(s["labels"]["op"], s["labels"]["kind"]): s["value"] for s in errors}
        assert counts == {("other", "client"): 1, ("ping", "server"): 1}


#: Lines that are JSON but not an object, then one that is not JSON.
NOT_OBJECTS = [b"[1, 2]", b'"x"', b"5", b"null"]
BAD_JSON = b"{not json"


def _other_count(reply, family, key="value"):
    """The ``op="other"`` samples of ``family`` in a ``stats`` metrics reply,
    summed over any other label."""
    (found,) = [f for f in reply["metrics"]["families"] if f["name"] == family]
    return sum(s[key] for s in found["samples"] if s["labels"]["op"] == "other")


async def _send_lines(reader, writer, lines):
    replies = []
    for line in lines:
        writer.write(line + b"\n")
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
    return replies


class TestRequestsThatAreNotObjects:
    """A line that is JSON but not an object is the client's mistake: it
    is refused with a plain reply, no fault is logged, and, like a line
    that is not JSON, it counts once under ``op="other"``, in the request,
    error and latency families alike."""

    def test_the_server_refuses_them_and_counts_them_as_other(self, caplog):
        state = QueryServer(tourist_database(), registry=MetricsRegistry())

        async def scenario():
            server = await asyncio.start_server(
                state.handle_connection, "127.0.0.1", 0, limit=MAX_LINE_BYTES
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await _connect(port)
                try:
                    replies = await _send_lines(reader, writer, NOT_OBJECTS + [BAD_JSON])
                    stats = await client_call(
                        reader, writer, {"op": "stats", "detail": "metrics"}
                    )
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return replies, stats

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            replies, stats = _run(scenario())
        assert replies[:4] == [server_module.NOT_AN_OBJECT] * 4
        assert replies[4]["ok"] is False and replies[4]["error"].startswith("bad JSON")
        assert _server_faults(caplog) == []
        assert _other_count(stats, "repro_requests_total") == 5
        assert _other_count(stats, "repro_request_errors_total") == 5
        assert _other_count(stats, "repro_request_latency_seconds", key="count") == 5
        assert stats["requests"] == 6

    @pytest.mark.parametrize("request_value", [[1, 2], "x", 5, None])
    def test_handle_request_refuses_them_directly(self, request_value):
        state = QueryServer(tourist_database(), registry=MetricsRegistry())
        reply = _run(state.handle_request(request_value))
        assert reply == {"ok": False, "error": "a request must be a JSON object"}

    def test_the_router_refuses_them_without_a_fault(self, caplog):
        async def scenario(reader, writer):
            replies = await _send_lines(reader, writer, NOT_OBJECTS)
            pong = await client_call(reader, writer, {"op": "ping"})
            return replies, pong

        with caplog.at_level(logging.ERROR, logger="repro.service.sharding"):
            replies, pong = _run(_with_router(scenario))
        assert replies == [server_module.NOT_AN_OBJECT] * 4
        assert pong["ok"] and pong["pong"]
        assert [r for r in caplog.records if r.name == "repro.service.sharding"] == []


K_REFUSED = {"ok": False, "error": "the 'k' option must be a positive integer"}


async def _pull(port, ks):
    """Open an ``fd`` session on the tourist database (6 answers), send one
    ``next`` per entry of ``ks`` (``...`` leaves ``k`` out), then ping."""
    reader, writer = await _connect(port)
    try:
        opened = await client_call(reader, writer, {"op": "open", "engine": "fd"})
        replies = []
        for k in ks:
            request = {"op": "next", "session": opened["session"]}
            if k is not ...:
                request["k"] = k
            replies.append(await client_call(reader, writer, request))
        pong = await client_call(reader, writer, {"op": "ping"})
    finally:
        writer.close()
        await writer.wait_closed()
    return replies, pong


def _server_faults(caplog):
    return [r for r in caplog.records if r.name == "repro.service.server"]


class TestNextK:
    @pytest.mark.parametrize(
        "k", ["x", None, 2.9, True, False, 0, -3, "2", [1], {"k": 1}],
        ids=repr,
    )
    def test_a_junk_k_is_the_clients_error(self, k, caplog):
        async def scenario(state, port):
            return await _pull(port, [k, 1])

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            (refused, served), pong = _run(_with_server(scenario))
        assert refused == K_REFUSED
        assert _server_faults(caplog) == []
        # The refusal consumed nothing: the next pull starts at the first answer.
        assert served["ok"] and len(served["results"]) == 1
        assert pong == {"ok": True, "pong": True}

    def test_k_defaults_to_one(self):
        async def scenario(state, port):
            return await _pull(port, [...])

        (reply,), _ = _run(_with_server(scenario))
        assert reply["ok"] and len(reply["results"]) == 1

    def test_a_huge_k_is_clamped_and_the_reply_says_more_remain(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(server_module, "MAX_NEXT_K", 4)

        async def scenario(state, port):
            return await _pull(port, [10**9, 10**9, 10**9])

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            (first, rest, after), _ = _run(_with_server(scenario))
        assert (len(first["results"]), first["exhausted"]) == (4, False)
        assert (len(rest["results"]), rest["exhausted"]) == (2, True)
        assert (after["results"], after["exhausted"]) == ([], True)
        assert _server_faults(caplog) == []

    def test_the_cap_is_ten_thousand(self):
        assert MAX_NEXT_K == 10_000

        async def scenario(state, port):
            return await _pull(port, [10**9])

        (reply,), _ = _run(_with_server(scenario))
        assert len(reply["results"]) == 6 and reply["exhausted"]


def _label_values(snapshot):
    return {
        (family["name"], key, value)
        for family in snapshot["families"]
        for sample in family["samples"]
        for key, value in sample["labels"].items()
    }


class TestBoundedLabels:
    def test_junk_flood_leaves_the_label_sets_unchanged(self):
        state = QueryServer(tourist_database(), registry=MetricsRegistry())

        async def scenario():
            async def labels():
                reply = await state.handle_request({"op": "stats", "detail": "metrics"})
                return _label_values(reply["metrics"])

            # One junk op and one junk engine first, so "other" is present,
            # and one stats call, so the label of the reading op is too.
            await state.handle_request({"op": "warm-up"})
            await state.handle_request({"op": "open", "engine": "warm-up"})
            await labels()
            before = await labels()
            replies = []
            for i in range(1000):
                replies.append(await state.handle_request({"op": f"junk-{i}"}))
            for i in range(200):
                replies.append(
                    await state.handle_request({"op": "open", "engine": f"junk-{i}"})
                )
            return before, await labels(), replies

        before, after, replies = _run(scenario())
        assert after == before
        assert ("repro_requests_total", "op", "other") in before
        assert ("repro_engine_latency_seconds", "engine", "other") in before
        assert all(reply["ok"] is False for reply in replies)
        # The error still names what the client sent.
        assert replies[7]["error"] == "unknown op 'junk-7'"
        assert replies[1003]["error"] == "unknown engine 'junk-3'"
