"""Service warm-hit throughput: the query front end under real load.

The benchmark-as-a-service layer's performance claim is that warm hits
are cheap: a stored point answers straight from the backend's read
path as pre-serialized canonical bytes, and hit accounting is batched
(one store-counter write per 64 hits) so the hot path does no
per-request read-modify-write. This bench drives the real stack — the
asyncio HTTP server on a loopback socket, keep-alive ``http.client``
connections — with several client threads hammering one warm point,
and guards two things:

* wall-clock vs the committed baseline (``BENCH_service.json``), via
  the shared :func:`check_or_record` workflow;
* an absolute floor under ``PERF_SMOKE=1``: at least
  :data:`WARM_QPS_FLOOR` warm queries/second end to end. The floor is
  deliberately far below what loopback HTTP manages on any dev box —
  it exists to catch an accidental per-request store walk or counter
  write, not to benchmark the host.
"""

import http.client
import json
import os
import pathlib
import tempfile
import threading
import time

from _harness import check_or_record, one_shot, record

from repro.service import BackgroundServer, BenchmarkService

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_service.json"

#: Concurrent keep-alive client threads.
CLIENTS = 4

#: Warm queries per client per run.
REQUESTS = 150

#: PERF_SMOKE acceptance: warm-hit throughput must clear this.
WARM_QPS_FLOOR = 500.0

#: The point every client asks for (~2 ms to simulate once).
QUERY = {
    "benchmark": "MR-AVG",
    "shuffle_gb": 0.02,
    "network": "1GigE",
    "slaves": 2,
    "params": {"num_maps": 4, "num_reduces": 2,
               "key_size": 256, "value_size": 256},
}


def _client(address, body, out, index):
    """One keep-alive client: REQUESTS warm queries, count the 200s."""
    conn = http.client.HTTPConnection(*address, timeout=60)
    ok = 0
    payloads = set()
    for _ in range(REQUESTS):
        conn.request("POST", "/v1/points", body=body)
        response = conn.getresponse()
        payloads.add(response.read())
        ok += response.status == 200
    conn.close()
    out[index] = (ok, payloads)


def bench_service_warm_hits(benchmark):
    """Throughput of one warm point under CLIENTS concurrent clients."""
    tmp = tempfile.mkdtemp(prefix="bench-service-")
    service = BenchmarkService(f"{tmp}/store")
    body = json.dumps(dict(QUERY, wait=True))
    with BackgroundServer(service) as server:
        # Seed: the first query simulates the point (cold, once).
        seed = http.client.HTTPConnection(*server.address, timeout=120)
        seed.request("POST", "/v1/points", body=body)
        response = seed.getresponse()
        reference = response.read()
        assert response.status == 200
        seed.close()

        def run():
            out = [None] * CLIENTS
            threads = [
                threading.Thread(target=_client,
                                 args=(server.address, body, out, i))
                for i in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            assert all(ok == REQUESTS for ok, _ in out)
            # Every response is the same canonical bytes as the seed.
            assert set().union(*(p for _, p in out)) == {reference}
            return seconds

        seconds = one_shot(benchmark, run)
        stats = service.stats(refresh=True)
    total = CLIENTS * REQUESTS
    qps = total / seconds
    # Nothing was re-simulated and no hit was dropped by the batched
    # counter flush (stats() flushes the remainder).
    assert stats["puts"] == 1
    assert stats["hits"] == total
    record(
        "perf_service_warm_hits",
        f"service warm-hit throughput ({CLIENTS} keep-alive clients x "
        f"{REQUESTS} queries):\n"
        f"  {total} requests in {seconds:.3f}s = {qps:,.0f} q/s\n",
    )
    check_or_record(
        "service_warm_hits",
        {"seconds": seconds, "qps": round(qps, 1),
         "clients": CLIENTS, "requests": total},
        BASELINE_PATH,
    )
    if os.environ.get("PERF_SMOKE"):
        assert qps >= WARM_QPS_FLOOR, (
            f"warm-hit throughput {qps:,.0f} q/s is below the "
            f"{WARM_QPS_FLOOR:,.0f} q/s floor")
