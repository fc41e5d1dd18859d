"""The asyncio HTTP/1.1 front end over :class:`BenchmarkService`.

Stdlib-only by design (the container bakes no web framework): a
hand-rolled, keep-alive-capable HTTP/1.1 server on
``asyncio.start_server``. The event loop only parses requests and
writes responses; every service call — store reads, ticket waits —
runs in a worker thread via ``asyncio.to_thread`` so a blocked
``wait=true`` query never stalls other clients.

Routes::

    POST /v1/points         query/enqueue one benchmark point
    GET  /v1/points/<key>   poll one point by store key
    GET  /v1/stats          store stats + service counters
                            (?refresh=1 re-reads the store footprint)
    GET  /healthz           liveness

Two entry points: :func:`run_server` is the blocking CLI path
(``repro serve``) with SIGINT/SIGTERM mapped to a graceful shutdown
and exit code 130, matching ``repro campaign run``;
:class:`BackgroundServer` runs the same app on a background thread for
tests and the traffic benchmark.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Callable, Dict, Optional, Set, Tuple

from repro.service.core import BenchmarkService, ServiceResponse
from repro.store import dump_record_text

#: Upper bound on request head (request line + headers) bytes.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on request body bytes (point queries are tiny).
MAX_BODY_BYTES = 256 * 1024

#: Reason phrases for the statuses the service emits.
REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _encode(response: ServiceResponse, keep_alive: bool) -> bytes:
    """Serialize one response (payload bytes pass through verbatim)."""
    if isinstance(response.payload, bytes):
        body = response.payload
    else:
        body = (dump_record_text(response.payload) + "\n").encode("utf-8")
    reason = REASONS.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def dispatch(service: BenchmarkService, method: str, target: str,
             body: bytes) -> ServiceResponse:
    """Route one parsed request (synchronous; runs in a worker thread)."""
    path, _, query_string = target.partition("?")
    if path == "/healthz":
        if method != "GET":
            return ServiceResponse(405, {"error": "use GET"})
        return ServiceResponse(200, service.healthz())
    if path == "/v1/stats":
        if method != "GET":
            return ServiceResponse(405, {"error": "use GET"})
        refresh = "refresh=1" in query_string.split("&")
        return ServiceResponse(200, service.stats(refresh=refresh))
    if path == "/v1/points":
        if method != "POST":
            return ServiceResponse(405, {"error": "use POST"})
        try:
            data = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return ServiceResponse(400, {"error": f"invalid JSON: {exc}"})
        return service.query_point(data)
    if path.startswith("/v1/points/"):
        if method != "GET":
            return ServiceResponse(405, {"error": "use GET"})
        return service.lookup(path[len("/v1/points/"):])
    return ServiceResponse(404, {"error": f"no route for {path}"})


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None on clean EOF, ValueError on bad input."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean keep-alive close
        raise ValueError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise ValueError("request head too large") from None
    if len(head) > MAX_HEAD_BYTES:
        raise ValueError("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ValueError("malformed Content-Length") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError("request body too large")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def _serve_connection(service: BenchmarkService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """One client connection: keep-alive request/response loop."""
    try:
        while True:
            try:
                request = await _read_request(reader)
            except (ValueError, asyncio.IncompleteReadError):
                writer.write(_encode(
                    ServiceResponse(400, {"error": "malformed request"}),
                    keep_alive=False))
                await writer.drain()
                return
            if request is None:
                return
            method, target, headers, body = request
            keep_alive = headers.get("connection", "").lower() != "close"
            response = await asyncio.to_thread(
                dispatch, service, method, target, body)
            writer.write(_encode(response, keep_alive=keep_alive))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.CancelledError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


class _App:
    """The app's asyncio plumbing: server + live-connection registry."""

    def __init__(self, service: BenchmarkService):
        """Wrap one service; nothing is bound until :meth:`start`."""
        self.service = service
        self.server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()

    async def _on_client(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        await _serve_connection(self.service, reader, writer)

    async def start(self, host: str, port: int) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        self.server = await asyncio.start_server(
            self._on_client, host, port)
        sockname = self.server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop accepting and tear down live connections."""
        if self.server is not None:
            self.server.close()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)


def run_server(
    service: BenchmarkService,
    host: str = "127.0.0.1",
    port: int = 8713,
    ready: Optional[Callable[[str, int], None]] = None,
) -> int:
    """Serve until SIGINT/SIGTERM; the blocking ``repro serve`` path.

    ``ready(host, port)`` fires once the socket is bound (with the
    real port when ``port=0``). On a signal the server stops accepting,
    the scheduler finishes its in-flight unit and cancels the rest
    (completed points are already durable), and the exit code is 130 —
    parity with an interrupted ``repro campaign run``. A clean external
    stop returns 0.
    """
    stop_signal: Dict[str, Optional[int]] = {"signum": None}

    async def main() -> None:
        """Bind, serve until the stop event, tear down gracefully."""
        app = _App(service)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def on_signal(signum: int) -> None:
            """Record the signal and trip the stop event."""
            stop_signal["signum"] = signum
            stop.set()

        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, on_signal, signum)
                installed.append(signum)
            except (ValueError, OSError,  # pragma: no cover - non-Unix
                    NotImplementedError):
                pass
        bound_host, bound_port = await app.start(host, port)
        service.start()
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await app.close()
            # Drop the rest of the queue; the in-flight unit completes
            # and is durable. Runs in a thread: stop() joins the
            # scheduler thread, which must keep making progress.
            await asyncio.to_thread(service.stop, False)

    asyncio.run(main())
    return 130 if stop_signal["signum"] is not None else 0


class BackgroundServer:
    """The same app on a daemon thread — for tests and benchmarks.

    Use as a context manager::

        service = BenchmarkService("file:/tmp/store")
        with BackgroundServer(service) as server:
            http.client.HTTPConnection(*server.address) ...

    Startup is synchronous (the socket is bound when ``__enter__``
    returns); teardown closes connections, stops the loop and shuts
    the service down (draining by default).
    """

    def __init__(self, service: BenchmarkService, host: str = "127.0.0.1",
                 port: int = 0, drain: bool = True):
        """Prepare a server; ``port=0`` binds an ephemeral port."""
        self.service = service
        self.host = host
        self.port = port
        self.drain = drain
        self._app = _App(service)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port)."""
        return self.host, self.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BackgroundServer":
        """Bind the socket, start the loop thread and the service."""
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            """The loop thread's body."""
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-service-http", daemon=True)
        self._thread.start()
        started.wait(5.0)
        future = asyncio.run_coroutine_threadsafe(
            self._app.start(self.host, self.port), self._loop)
        self.host, self.port = future.result(timeout=10.0)
        self.service.start()
        return self

    def stop(self) -> None:
        """Tear down the HTTP layer, then stop the service."""
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._app.close(), self._loop).result(timeout=10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            self._loop.close()
            self._loop = None
            self._thread = None
        self.service.stop(drain=self.drain)

    def __enter__(self) -> "BackgroundServer":
        """Start the server and enter the context."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Stop the server on context exit."""
        self.stop()
