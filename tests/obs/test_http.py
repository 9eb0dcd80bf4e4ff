"""The HTTP sidecar: routing, content types, failures."""

from __future__ import annotations

import asyncio
import json

from repro.obs import MetricsRegistry, start_sidecar


async def _http_get(port: int, path: str, method: str = "GET"):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.partition(b": ")
        headers[key.decode().lower()] = value.decode()
    return status, headers, body.decode("utf-8")


def _run(coroutine):
    return asyncio.run(coroutine)


async def _with_sidecar(metrics, health, scenario):
    sidecar = await start_sidecar(metrics, health)
    try:
        return await scenario(sidecar.port)
    finally:
        await sidecar.close()


class TestSidecar:
    def test_metrics_endpoint_serves_prometheus_text(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("repro_pings_total", "Pings.").inc(4)

        async def scenario(port):
            return await _http_get(port, "/metrics")

        status, headers, body = _run(
            _with_sidecar(registry.render, lambda: {"status": "ok"}, scenario)
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert "repro_pings_total 4" in body

    def test_health_endpoint_serves_json(self):
        async def scenario(port):
            return await _http_get(port, "/health")

        status, headers, body = _run(
            _with_sidecar(lambda: "", lambda: {"status": "ok", "epoch": 3}, scenario)
        )
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body) == {"status": "ok", "epoch": 3}

    def test_unknown_path_is_404_and_bad_method_is_405(self):
        async def scenario(port):
            return (
                await _http_get(port, "/nope"),
                await _http_get(port, "/metrics", method="POST"),
            )

        (nf_status, _, nf_body), (mm_status, _, _) = _run(
            _with_sidecar(lambda: "", lambda: {}, scenario)
        )
        assert nf_status == 404
        assert "/metrics" in nf_body
        assert mm_status == 405

    def test_a_query_string_does_not_change_the_route(self):
        async def scenario(port):
            return (
                await _http_get(port, "/metrics?name[]=repro_pings_total"),
                await _http_get(port, "/health?verbose=1"),
                await _http_get(port, "/nope?metrics"),
            )

        (m_status, _, m_body), (h_status, _, h_body), (n_status, _, _) = _run(
            _with_sidecar(lambda: "repro_pings_total 4\n", lambda: {"status": "ok"}, scenario)
        )
        assert m_status == 200 and m_body == "repro_pings_total 4\n"
        assert h_status == 200 and json.loads(h_body) == {"status": "ok"}
        assert n_status == 404

    def test_a_malformed_request_is_answered_and_the_sidecar_keeps_serving(self):
        async def scenario(port):
            replies = []
            for request in (b"", b"GARBAGE\r\n\r\n"):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(request)
                writer.write_eof()
                replies.append(await reader.read())
                writer.close()
                await writer.wait_closed()
            return replies, await _http_get(port, "/health")

        replies, (status, _, body) = _run(
            _with_sidecar(lambda: "", lambda: {"status": "ok"}, scenario)
        )
        for raw in replies:
            head, _, text = raw.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0] == b"HTTP/1.0 400 Bad Request"
            assert text == b"bad request\n"
        assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_callback_exception_becomes_a_500(self):
        def broken():
            raise RuntimeError("shard 1 is gone")

        async def scenario(port):
            return await _http_get(port, "/metrics")

        status, _, body = _run(_with_sidecar(broken, lambda: {}, scenario))
        assert status == 500
        assert "RuntimeError: shard 1 is gone" in body
