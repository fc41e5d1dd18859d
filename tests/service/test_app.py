"""HTTP front-end tests: routes, status codes, keep-alive, polling.

These drive a real socket — :class:`BackgroundServer` on an ephemeral
port, ``http.client`` as the client — so the request parser, the
``asyncio.to_thread`` dispatch and the byte-verbatim warm path are all
exercised end to end. One directory root is enough here: root
spelling parity is the core suite's job, the transport doesn't touch
it.
"""

import asyncio
import http.client
import json
import logging
import time

import pytest

from repro.service import BackgroundServer, BenchmarkService
from repro.service.app import _serve_connection

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
