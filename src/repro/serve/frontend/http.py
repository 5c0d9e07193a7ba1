"""Stdlib-asyncio HTTP edge for the multi-worker serving front-end.

``repro serve http`` runs this server: a deliberately small HTTP/1.1
implementation over :func:`asyncio.start_server` — no framework, no
dependency — that turns concurrent GET requests into
:meth:`~repro.serve.frontend.core.ServingFrontend.submit` calls.  The
front-end dispatches each admitted request at once, and a busy worker
scores whatever queued up behind it as one batch, so HTTP concurrency
and batched scoring compose without the edge knowing.

Routes
------
``GET /recommend?user=U&k=K[&deadline_ms=D]``
    Top-K for one user.  200 with the engine's response schema;
    **429** when admission sheds the request (body says why: queue
    depth, wait budget, or a dead-on-arrival deadline); **503** while
    draining.
``GET /status``
    Full front-end status: admission counters, queue depth, EWMA queue
    wait, and the supervisor's per-shard fleet/breaker view.
``GET /health``
    Liveness: 200 when every worker is ready, 503 while any shard is
    degraded (a load balancer's readiness probe).

Graceful drain: SIGTERM (and SIGINT) stops the listener, lets in-flight
HTTP exchanges finish, drains the front-end's admitted requests, tears
down workers and shared memory, and exits 0.  Zero admitted requests
are dropped — the drill ``kill -TERM`` in CI asserts exactly that.
"""

from __future__ import annotations

import asyncio
import json
import signal
import urllib.error
import urllib.parse
import urllib.request
from typing import Dict, Optional, Tuple

from repro import obs
from repro.serve.frontend.core import DRAIN_TIMEOUT_S, ServingFrontend

LOG = obs.get_logger(__name__)

_REASON_PHRASE = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  429: "Too Many Requests", 500: "Internal Server Error",
                  503: "Service Unavailable"}

# HTTP status per submit() resolution status.
_SHED_STATUS = 429
_DRAINING_STATUS = 503


def _response_bytes(status: int, payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload).encode()
    head = (f"HTTP/1.1 {status} {_REASON_PHRASE.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode()
    return head + body


class HttpFrontendServer:
    """One listening socket in front of one :class:`ServingFrontend`."""

    def __init__(self, frontend: ServingFrontend,
                 host: str = "127.0.0.1", port: int = 0):
        self.frontend = frontend
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._active = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._drain_requested = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and listen; returns the bound port (for ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    def request_drain(self) -> None:
        """Signal-safe drain trigger (installed on SIGTERM/SIGINT)."""
        self._drain_requested.set()

    async def serve_until_drained(self) -> None:
        """Serve until a drain is requested, then drain gracefully."""
        await self._drain_requested.wait()
        LOG.info("drain requested: closing listener on port %d",
                 self.port)
        self._server.close()
        await self._server.wait_closed()
        # Let in-flight HTTP exchanges write their responses.
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   timeout=DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:  # pragma: no cover - slow client
            LOG.warning("drain: active connections outlived the "
                        "timeout; continuing shutdown")
        # Flush whatever the front-end still has admitted, then stop
        # workers + shared memory.  Blocking call → executor.
        await asyncio.get_running_loop().run_in_executor(
            None, self.frontend.drain)

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._active += 1
        self._idle.clear()
        try:
            status, payload = await self._dispatch(reader)
            writer.write(_response_bytes(status, payload))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._active -= 1
            if self._active == 0:
                self._idle.set()

    async def _dispatch(self, reader: asyncio.StreamReader
                        ) -> Tuple[int, Dict[str, object]]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                asyncio.LimitOverrunError):
            return 400, {"error": "malformed request"}
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        parts = request_line.split()
        if len(parts) != 3 or parts[0] != "GET":
            return 400, {"error": f"unsupported request "
                                  f"{request_line!r}"}
        url = urllib.parse.urlsplit(parts[1])
        query = dict(urllib.parse.parse_qsl(url.query))
        if url.path == "/recommend":
            return await self._recommend(query)
        if url.path == "/status":
            return 200, self.frontend.status()
        if url.path == "/health":
            fleet = self.frontend.status()["fleet"]
            healthy = fleet.get("ready") == fleet.get("n_workers")
            return (200 if healthy else 503), {
                "ready": fleet.get("ready"),
                "n_workers": fleet.get("n_workers"),
                "any_breaker_open": fleet.get("any_breaker_open")}
        return 404, {"error": f"no route {url.path}"}

    async def _recommend(self, query: Dict[str, str]
                         ) -> Tuple[int, Dict[str, object]]:
        try:
            user = int(query["user"])
            k = int(query.get("k", self.frontend.config.service.k))
            deadline_ms = float(query["deadline_ms"]) \
                if "deadline_ms" in query else "default"
        except (KeyError, ValueError) as exc:
            return 400, {"error": f"bad query parameter: {exc}"}
        future = self.frontend.submit(user, k, deadline_ms)
        try:
            resolution = await asyncio.wrap_future(future)
        except Exception as exc:  # pragma: no cover - engine never raises
            LOG.error("request for user %d failed: %s", user, exc)
            return 500, {"error": type(exc).__name__}
        status = resolution["status"]
        if status == "ok":
            return 200, resolution["result"]
        if status == "shed":
            return _SHED_STATUS, {"error": "shed",
                                  "reason": resolution["reason"]}
        return _DRAINING_STATUS, {"error": "draining"}


def run_http_server(frontend: ServingFrontend, host: str = "127.0.0.1",
                    port: int = 0,
                    port_file: Optional[str] = None,
                    ready_message=None) -> int:
    """Start ``frontend``, serve HTTP until SIGTERM/SIGINT, drain, exit.

    ``port_file`` (CI's ephemeral-port handshake) receives the bound
    port once the socket is listening *and* the workers are ready.
    ``ready_message`` is an optional callable invoked with the bound
    port at that same moment (the CLI prints the serving line with it).
    Returns the process exit code: 0 after a graceful drain.
    """

    async def _main() -> int:
        server = HttpFrontendServer(frontend, host, port)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_drain)
        if port_file:
            with open(port_file, "w") as fh:
                fh.write(str(server.port))
        if ready_message is not None:
            ready_message(server.port)
        LOG.info("serving %d worker(s) on http://%s:%d",
                 frontend.config.n_workers, host, server.port)
        await server.serve_until_drained()
        return 0

    frontend.start()
    try:
        return asyncio.run(_main())
    finally:
        frontend.stop()   # idempotent; covers startup failures too


def fetch_status(port: int, host: str = "127.0.0.1",
                 timeout: float = 5.0) -> Dict[str, object]:
    """GET ``/status`` from a running front-end (CLI ``--status``)."""
    url = f"http://{host}:{port}/status"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode())
    except (urllib.error.URLError, OSError) as exc:
        raise ConnectionError(
            f"no serving front-end answering on {url}: {exc}") from exc
