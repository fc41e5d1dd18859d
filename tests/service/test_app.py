"""HTTP front-end tests: routes, status codes, keep-alive, polling.

These drive a real socket — :class:`BackgroundServer` on an ephemeral
port, ``http.client`` as the client — so the request parser, the
split between dispatch on the event loop and in worker threads, and
the byte-verbatim warm path are all exercised end to end. One directory
root is enough here: root spelling parity is the core suite's job, the
transport doesn't touch it.
"""

import asyncio
import http.client
import json
import logging
import os
import threading
import time

import pytest

from repro.service import (
    CANCELLED,
    BackgroundServer,
    BenchmarkService,
    Ticket,
    parse_point_query,
)
from repro.service.app import _serve_connection
from repro.service.core import HIT_FLUSH_THRESHOLD

from tests.service.conftest import tiny_query


@pytest.fixture
def server(tmp_path):
    service = BenchmarkService(str(tmp_path / "store"))
    with BackgroundServer(service) as running:
        yield running


@pytest.fixture
def client(server):
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    yield conn
    conn.close()


def request(conn, method, target, body=None):
    """One request; returns (status, raw bytes, parsed JSON)."""
    payload = json.dumps(body) if body is not None else None
    conn.request(method, target, body=payload)
    response = conn.getresponse()
    raw = response.read()
    return response.status, raw, json.loads(raw)


class TestRoutes:
    def test_healthz(self, client):
        status, _, doc = request(client, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_cold_query_waits_to_200_then_warm_is_byte_identical(
            self, client):
        status, cold_raw, _ = request(client, "POST", "/v1/points",
                                      tiny_query(wait=True))
        assert status == 200
        status, warm_raw, _ = request(client, "POST", "/v1/points",
                                      tiny_query(wait=True))
        assert status == 200
        assert warm_raw == cold_raw

    def test_async_query_202_then_poll_to_200(self, client, server):
        status, _, ticket = request(client, "POST", "/v1/points",
                                    tiny_query())
        assert status == 202
        assert ticket["state"] in ("queued", "running")
        key = ticket["key"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, raw, doc = request(client, "GET", f"/v1/points/{key}")
            if status == 200:
                break
            assert status == 202
            time.sleep(0.02)
        assert status == 200
        assert doc["key"] == key

    def test_stats_document(self, client):
        request(client, "POST", "/v1/points", tiny_query(wait=True))
        request(client, "POST", "/v1/points", tiny_query(wait=True))
        status, _, doc = request(client, "GET", "/v1/stats?refresh=1")
        assert status == 200
        assert doc["puts"] == 1
        assert isinstance(doc["hit_rate"], float)
        assert doc["service"]["requests"] == 2

    def test_stats_hit_rate_null_before_any_lookup(self, client):
        status, _, doc = request(client, "GET", "/v1/stats")
        assert status == 200
        assert doc["hit_rate"] is None

    def test_unknown_key_404(self, client):
        status, _, doc = request(client, "GET", "/v1/points/" + "ab" * 32)
        assert status == 404
        assert "unknown point key" in doc["error"]

    def test_unknown_route_404(self, client):
        status, _, _ = request(client, "GET", "/v2/nothing")
        assert status == 404

    @pytest.mark.parametrize("method, target", [
        ("POST", "/healthz"),
        ("POST", "/v1/stats"),
        ("GET", "/v1/points"),
        ("DELETE", "/v1/points/abc"),
    ])
    def test_wrong_method_405(self, client, method, target):
        status, _, _ = request(client, method, target)
        assert status == 405

    def test_invalid_json_body_400(self, client):
        client.request("POST", "/v1/points", body="{ nope")
        response = client.getresponse()
        doc = json.loads(response.read())
        assert response.status == 400
        assert "invalid JSON" in doc["error"]

    def test_deeply_nested_body_400(self, client, caplog):
        """A body nested deeper than the JSON decoder follows (well under
        MAX_BODY_BYTES) is invalid JSON, not a dropped connection."""
        body = b"[" * 50_000 + b"]" * 50_000
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            client.request("POST", "/v1/points", body=body)
            response = client.getresponse()
            doc = json.loads(response.read())
            assert response.status == 400
            assert "invalid JSON" in doc["error"]
            # The connection is still good for the next request.
            status, _, _ = request(client, "GET", "/healthz")
            assert status == 200
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_bad_query_400(self, client):
        status, _, doc = request(client, "POST", "/v1/points",
                                 {"network": "1GigE"})
        assert status == 400
        assert "shuffle_gb" in doc["error"]


class TestProtocol:
    def test_keep_alive_serves_many_requests_per_connection(self, client):
        for _ in range(5):
            status, _, _ = request(client, "GET", "/healthz")
            assert status == 200

    def test_connection_close_is_honored(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        response = conn.getresponse()
        assert response.status == 200
        assert response.headers["Connection"] == "close"
        response.read()
        conn.close()

    def test_malformed_request_line_gets_400(self, server):
        import socket

        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(b"WHAT\r\n\r\n")
            data = sock.recv(4096)
        assert data.startswith(b"HTTP/1.1 400 ")

    def test_content_length_and_type_headers(self, server):
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        raw = response.read()
        assert int(response.headers["Content-Length"]) == len(raw)
        assert response.headers["Content-Type"] == "application/json"
        conn.close()


def _timed(server, method, target, body=None):
    """One request on a fresh connection: (status, seconds)."""
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        started = time.perf_counter()
        status, _, _ = request(conn, method, target, body)
        return status, time.perf_counter() - started
    finally:
        conn.close()


class TestEventLoop:
    """Only ``GET /v1/stats`` and waiting queries leave the event loop;
    every other request is answered on it and never writes the store."""

    def test_healthz_and_warm_answer_while_every_worker_thread_waits(
            self, tmp_path, monkeypatch):
        service = BenchmarkService(str(tmp_path / "store"))
        # As many waiting queries as asyncio's default executor has
        # threads: every worker thread is then blocked.
        holds = min(32, (os.cpu_count() or 1) + 4)
        cold = tiny_query(shuffle_gb=0.03, wait=30)
        key = parse_point_query(tiny_query(shuffle_gb=0.03)).key
        with BackgroundServer(service) as server:
            status, _ = _timed(server, "POST", "/v1/points",
                               tiny_query(wait=True))
            assert status == 200  # the warm point
            # From here on the scheduler never resolves a ticket.
            monkeypatch.setattr(service.scheduler, "submit",
                                lambda ticket: True)
            statuses = []
            clients = [threading.Thread(
                target=lambda: statuses.append(
                    _timed(server, "POST", "/v1/points", cold)[0]))
                for _ in range(holds)]
            for client in clients:
                client.start()
            try:
                deadline = time.monotonic() + 20
                ticket = service.flight.get(key)
                while ((ticket is None or ticket.waiters < holds)
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                    ticket = service.flight.get(key)
                assert ticket is not None and ticket.waiters == holds
                time.sleep(0.1)  # the last waiter reaches ticket.wait
                status, seconds = _timed(server, "GET", "/healthz")
                assert status == 200 and seconds < 0.5
                status, seconds = _timed(server, "POST", "/v1/points",
                                         tiny_query())
                assert status == 200 and seconds < 0.5
            finally:
                ticket = service.flight.get(key)
                if ticket is not None:
                    service.flight.resolve(ticket, CANCELLED, "test over")
                for client in clients:
                    client.join(30)
        assert statuses == [503] * holds

    def test_counter_flush_and_ticket_waits_stay_off_the_loop(
            self, tmp_path, monkeypatch):
        service = BenchmarkService(str(tmp_path / "store"))
        threads = {"bump_counters": [], "wait": []}
        bump = service.store.bump_counters
        wait = Ticket.wait

        def recording_bump(deltas):
            threads["bump_counters"].append(threading.current_thread())
            return bump(deltas)

        def recording_wait(ticket, timeout=None):
            threads["wait"].append(threading.current_thread())
            return wait(ticket, timeout)

        monkeypatch.setattr(service.store, "bump_counters", recording_bump)
        monkeypatch.setattr(Ticket, "wait", recording_wait)
        with BackgroundServer(service) as server:
            loop_thread = server._thread
            conn = http.client.HTTPConnection(*server.address, timeout=30)
            status, _, doc = request(conn, "POST", "/v1/points",
                                     tiny_query(wait=True))
            assert status == 200
            key = doc["key"]
            for _ in range(HIT_FLUSH_THRESHOLD):
                assert request(conn, "POST", "/v1/points",
                               tiny_query())[0] == 200
                assert request(conn, "GET", f"/v1/points/{key}")[0] == 200
            deadline = time.monotonic() + 10
            flusher = service.scheduler._thread
            while (flusher not in threads["bump_counters"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert flusher in threads["bump_counters"]
            status, _, stats = request(conn, "GET", "/v1/stats")
            assert status == 200
            assert stats["hits"] == 2 * HIT_FLUSH_THRESHOLD
            conn.close()
        assert threads["wait"]
        assert loop_thread not in threads["wait"]
        assert loop_thread not in threads["bump_counters"]


class _ClosingWriter:
    """A stream writer whose ``wait_closed()`` blocks until cancelled."""

    def __init__(self):
        self.waiting = None

    def close(self):
        pass

    async def wait_closed(self):
        self.waiting = asyncio.get_running_loop().create_future()
        await self.waiting


class TestShutdown:
    """Cancelling connections on shutdown logs no asyncio error."""

    def test_cancel_inside_wait_closed_finishes_not_cancelled(self,
                                                              caplog):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_eof()  # clean keep-alive close: straight to finally
            writer = _ClosingWriter()
            task = asyncio.ensure_future(
                _serve_connection(None, reader, writer))
            while writer.waiting is None:
                await asyncio.sleep(0)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            return task

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            task = asyncio.run(scenario())
        assert not task.cancelled()
        assert task.exception() is None
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_start_stop_cycles_with_keep_alive_clients(self, tmp_path,
                                                       caplog):
        service_root = str(tmp_path / "store")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            for _ in range(5):
                server = BackgroundServer(BenchmarkService(service_root))
                server.start()
                clients = []
                for _ in range(3):
                    conn = http.client.HTTPConnection(*server.address,
                                                      timeout=30)
                    status, _, _ = request(conn, "GET", "/healthz")
                    assert status == 200
                    clients.append(conn)  # left open: keep-alive
                server.stop()
                for conn in clients:
                    conn.close()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
