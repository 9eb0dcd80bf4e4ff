"""A minimal stdlib-asyncio HTTP sidecar for ``/metrics`` and ``/health``.

The serving protocol is JSON-lines over TCP; scrapers and load balancers
speak HTTP.  Rather than pulling in a web framework, this module serves the
two read-only observability endpoints with ``asyncio.start_server`` and a
hand-rolled HTTP/1.0 response — sufficient for Prometheus (which sends a
plain ``GET /metrics``) and for ``curl``-based health checks, and zero new
dependencies.

The sidecar is handed two callables at startup:

- ``metrics()`` → the Prometheus text page (``text/plain; version=0.0.4``)
- ``health()`` → a JSON-serializable dict (``application/json``, 200)

Callback exceptions become a 500 with the error message in the body rather
than a dropped connection: a scraper seeing a 500 is a *signal*; a reset is
a mystery.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Optional

_MetricsFn = Callable[[], str]
_HealthFn = Callable[[], dict]

_REASONS = {200: "OK", 404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error"}


def _response(status: int, content_type: str, body: str) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


class MetricsSidecar:
    """The ``/metrics`` + ``/health`` HTTP listener beside a query server."""

    def __init__(self, metrics: _MetricsFn, health: _HealthFn):
        self._metrics = metrics
        self._health = health
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        assert self._server is not None, "sidecar not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "MetricsSidecar":
        self._server = await asyncio.start_server(self._handle, host, port)
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            # Drain headers up to the blank line; we route on the path alone.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            writer.write(self._route(request_line))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _route(self, request_line: bytes) -> bytes:
        try:
            method, path, _ = request_line.decode("ascii", "replace").split(None, 2)
        except ValueError:
            return _response(404, "text/plain", "bad request\n")
        path = path.split("?", 1)[0]
        if method not in ("GET", "HEAD"):
            return _response(405, "text/plain", "method not allowed\n")
        try:
            if path == "/metrics":
                body = self._metrics()
                return _response(
                    200, "text/plain; version=0.0.4; charset=utf-8", body
                )
            if path == "/health":
                body = self._health()
                return _response(
                    200, "application/json", json.dumps(body) + "\n"
                )
        except Exception as error:  # surface callback failures as a 500
            return _response(500, "text/plain", f"{type(error).__name__}: {error}\n")
        return _response(404, "text/plain", "not found; try /metrics or /health\n")


async def start_sidecar(
    metrics: _MetricsFn,
    health: _HealthFn,
    host: str = "127.0.0.1",
    port: int = 0,
) -> MetricsSidecar:
    """Start a :class:`MetricsSidecar` and return it (``.port`` is bound)."""
    return await MetricsSidecar(metrics, health).start(host, port)
