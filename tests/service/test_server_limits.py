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

    def test_lines_over_the_asyncio_default_are_served_both_ways(self):
        """A 100 KiB ingest line is read whole, and so is a reply over 64 KiB."""
        wide = "x" * 2600
        tuples = [["Climates", [f"land{i}", wide]] for i in range(40)]

        async def scenario(state, port):
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
            writer.close()
            await writer.wait_closed()
            return ingested, pulled

        ingested, pulled = _run(_with_server(scenario))
        assert len(json.dumps({"op": "ingest", "tuples": tuples})) > 100 * 1024
        assert ingested["ok"] and ingested["applied"] == 40
        assert pulled["ok"] and pulled["exhausted"]
        assert len(json.dumps(pulled)) > 64 * 1024
        wide_rows = [r for r in pulled["results"] if r["row"]["Climate"] == wide]
        assert len(wide_rows) == 40


def _climate_ingest_line(byte_length: int) -> tuple:
    """An ``ingest`` line of about ``byte_length`` UTF-8 bytes, padded with
    the two-byte "é"; returns the line and the climate it carries."""
    def line(climate):
        request = {"op": "ingest", "tuples": [["Climates", ["Atlantis", climate]]]}
        return json.dumps(request, ensure_ascii=False).encode()

    climate = "é" * ((byte_length - len(line(""))) // 2)
    return line(climate), climate


class TestMultibyteLines:
    """The line limit counts the bytes a client sends, not the characters
    they decode to."""

    def test_a_line_over_the_limit_in_bytes_but_not_characters_is_refused(self):
        encoded, _ = _climate_ingest_line(MAX_LINE_BYTES + 2)
        assert len(encoded.decode()) < MAX_LINE_BYTES < len(encoded)

        async def scenario(state, port):
            reader, writer = await _connect(port)
            writer.write(encoded + b"\n")
            await writer.drain()
            refused = json.loads(await reader.readline())
            closed = await reader.read()
            writer.close()
            await writer.wait_closed()
            return refused, closed, state.maintainer.arrivals_applied

        refused, closed, applied = _run(_with_server(scenario))
        assert refused == LINE_TOO_LONG and closed == b""
        assert applied == 0

    def test_a_line_at_the_limit_in_bytes_is_served_as_sent(self):
        encoded, climate = _climate_ingest_line(MAX_LINE_BYTES)
        assert MAX_LINE_BYTES - 2 < len(encoded) <= MAX_LINE_BYTES
        assert len(json.dumps(json.loads(encoded))) > MAX_LINE_BYTES

        async def scenario(state, port):
            reader, writer = await _connect(port)
            writer.write(encoded + b"\n")
            await writer.drain()
            ingested = json.loads(await reader.readline())
            pong = await client_call(reader, writer, {"op": "ping"})
            writer.close()
            await writer.wait_closed()
            climates = next(r for r in state.database.relations if r.name == "Climates")
            return ingested, pong, [t.values for t in climates if t.values[0] == "Atlantis"]

        ingested, pong, stored = _run(_with_server(scenario))
        assert ingested["ok"] and ingested["applied"] == 1
        assert pong == {"ok": True, "pong": True}
        assert stored == [("Atlantis", climate)]


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


class TestStaleCursors:
    def test_a_stale_cursor_is_the_clients_error(self, caplog):
        """A pull beyond a prefix an ingest invalidated gets the documented
        "reopen the query" reply, counted as the client's error and not
        logged as a server fault."""
        registry = MetricsRegistry()
        state = QueryServer(tourist_database(), registry=registry)
        ingest = {"op": "ingest", "tuples": [["Climates", ["Atlantis", "mild"]]]}

        async def scenario():
            server = await asyncio.start_server(
                state.handle_connection, "127.0.0.1", 0, limit=MAX_LINE_BYTES
            )
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await _connect(port)
                try:
                    opened = await client_call(reader, writer, {"op": "open", "engine": "fd"})
                    name = opened["session"]
                    first = await client_call(
                        reader, writer, {"op": "next", "session": name, "k": 1}
                    )
                    ingested = await client_call(reader, writer, ingest)
                    deep = await client_call(
                        reader, writer, {"op": "next", "session": name, "k": 100}
                    )
                    peeked = await client_call(reader, writer, {"op": "peek", "session": name})
                finally:
                    writer.close()
                    await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
            return first, ingested, deep, peeked

        with caplog.at_level(logging.ERROR, logger="repro.service.server"):
            first, ingested, deep, peeked = _run(scenario())
        assert first["ok"] and ingested["ok"] and ingested["invalidated_queries"] == 1
        for reply in (deep, peeked):
            assert reply["ok"] is False and "reopen the query" in reply["error"]
        assert _server_faults(caplog) == []
        errors = registry.family("repro_request_errors_total").samples()
        counts = {(s["labels"]["op"], s["labels"]["kind"]): s["value"] for s in errors}
        assert counts == {("next", "client"): 1, ("peek", "client"): 1}


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
