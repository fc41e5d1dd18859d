"""BenchmarkService contract tests (transport-independent core).

The headline acceptance check lives here: 32 concurrent identical
cold-point queries against an empty store end with store ``puts == 1``
and all 32 clients holding hex-identical job times — on both backends.
Around it: warm-hit byte-identity with the store untouched, sticky
quarantine verdicts, graceful-shutdown draining, and the small 4xx/5xx
edges.
"""

import json
import multiprocessing
import threading

import pytest

import repro.core.suite as suite_mod
from repro.campaign import LocalBackend
from repro.campaign.executor import RetryPolicy
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    BenchmarkService,
    parse_point_query,
)
from repro.store import ResultStore, dump_record_text

from tests.service.conftest import TINY_POINT, tiny_query
from tests.store.conftest import store_root


def payload_time_hex(response):
    """The job time in a 200 payload, as an exact hex float."""
    record = json.loads(response.payload)
    return float(record["result"]["execution_time"]).hex()


@pytest.fixture
def service(tmp_path, root_kind):
    """A started service on a fresh store of the current root spelling."""
    svc = BenchmarkService(store_root(tmp_path, root_kind),
                           policy=RetryPolicy(retries=0, backoff=0.0))
    svc.start()
    yield svc
    svc.stop()


class TestWarmAndCold:
    def test_cold_then_warm_byte_identical_puts_unmoved(
            self, service, tmp_path, root_kind):
        cold = service.query_point(tiny_query(wait=True))
        assert cold.status == 200 and isinstance(cold.payload, bytes)
        root = store_root(tmp_path, root_kind)
        assert ResultStore(root).stats()["puts"] == 1

        warm = service.query_point(tiny_query(wait=True))
        assert warm.status == 200
        assert warm.payload == cold.payload
        # The warm hit re-served stored bytes; nothing new was written.
        store = ResultStore(root)
        assert store.stats()["puts"] == 1
        assert service._counters["warm_hits"] == 1

        # Byte-identity with the store's own canonical serialization.
        key = parse_point_query(tiny_query()).key
        record = store.fetch_record(key)
        assert warm.payload == dump_record_text(record).encode("utf-8")

    def test_padded_record_is_served_canonical_after_verify_gc(
            self, service, tmp_path, root_kind, capsys):
        """Warm answers are the stored text as is. A record whose text
        is padded through SQL is flagged by ``repro store verify``;
        ``--gc`` writes its canonical text back, and the service then
        answers the canonical bytes again."""
        from repro.core.cli import repro_main

        cold = service.query_point(tiny_query(wait=True))
        key = parse_point_query(tiny_query()).key
        root = store_root(tmp_path, root_kind)
        store = ResultStore(root)
        db = store._db()
        with db:
            db.execute("UPDATE records SET record = ' ' || record "
                       "WHERE key = ?", (key,))
        assert service.query_point(tiny_query()).payload == (
            b" " + cold.payload)
        capsys.readouterr()
        assert repro_main(["store", "verify", "--store", root]) == 1
        assert "record text is not canonical" in capsys.readouterr().out
        assert repro_main(["store", "verify", "--gc", "--store", root]) == 0
        assert "1 swept" in capsys.readouterr().out
        warm = service.query_point(tiny_query())
        assert warm.status == 200
        assert warm.payload == cold.payload
        assert warm.payload == dump_record_text(
            store.fetch_record(key)).encode("utf-8")
        store.close()

    def test_lookup_by_key_matches_query_payload(self, service):
        posted = service.query_point(tiny_query(wait=True))
        key = parse_point_query(tiny_query()).key
        polled = service.lookup(key)
        assert polled.status == 200
        assert polled.payload == posted.payload

    def test_service_point_is_warm_for_a_campaign_run(
            self, service, tmp_path, root_kind):
        """A point the service simulated is `0 simulated` later."""
        from repro.campaign import Campaign, run_campaign
        from repro.core.suite import clear_result_cache

        assert service.query_point(tiny_query(wait=True)).status == 200
        clear_result_cache()
        campaign = Campaign(
            name="after-service", shuffle_gbs=(0.02,),
            networks=("1GigE",), slaves=2,
            params={"num_maps": 4, "num_reduces": 2,
                    "key_size": 256, "value_size": 256})
        store = ResultStore(store_root(tmp_path, root_kind))
        result = run_campaign(campaign, store=store)
        assert result.executed == 0
        assert result.from_store == 1
        assert store.stats()["puts"] == 1


class TestSingleFlight:
    def test_32_concurrent_cold_queries_simulate_once(
            self, tmp_path, root_kind):
        """ISSUE acceptance: puts == 1, 32 hex-identical job times."""
        root = store_root(tmp_path, root_kind)
        service = BenchmarkService(root)
        service.start()
        responses = [None] * 32
        barrier = threading.Barrier(len(responses))

        def client(i):
            barrier.wait()
            responses[i] = service.query_point(tiny_query(wait=True))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(responses))]
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                thread.join(timeout=60)
        service.stop()

        assert {r.status for r in responses} == {200}
        assert len({r.payload for r in responses}) == 1
        assert len({payload_time_hex(r) for r in responses}) == 1
        stats = ResultStore(root).stats()
        assert stats["puts"] == 1
        # Every request is accounted: one miss (by the executor's store
        # lookup), the rest split between coalesced joins and warm hits
        # for stragglers that arrived after resolution.
        counters = service._counters
        assert counters["requests"] == 32
        assert counters["cold_misses"] == 1
        assert (counters["coalesced"] + counters["warm_hits"]
                == len(responses) - 1)

    def test_straggler_that_missed_the_store_is_a_warm_hit(
            self, service, monkeypatch):
        """A store read that misses just before the single ticket
        resolves must not start a second ticket and simulation."""
        first = service.query_point(tiny_query(wait=True))
        assert first.status == 200
        assert service.flight.in_flight() == 0
        fetch = service.store.fetch_record
        reads = []

        def stale_first_read(key):
            reads.append(key)
            return None if len(reads) == 1 else fetch(key)

        monkeypatch.setattr(service.store, "fetch_record", stale_first_read)
        straggler = service.query_point(tiny_query(wait=True))
        assert straggler.status == 200
        assert straggler.payload == first.payload
        assert len(reads) == 2
        counters = service._counters
        assert counters["cold_misses"] == 1
        assert counters["warm_hits"] == 1
        assert service.scheduler.cold_units == 1
        assert service.flight.in_flight() == 0

    def test_done_ticket_leaves_the_table(self, service):
        service.query_point(tiny_query(wait=True))
        assert service.flight.in_flight() == 0
        assert service.flight.failed() == 0

    def test_value_equal_spellings_each_get_their_own_record(
            self, service, tmp_path, root_kind):
        """``seed`` 7 and 7.0 name distinct store keys. Once one
        spelling is simulated, the other must still be simulated and
        stored under its own key, not served the first one's memo entry
        and left answering 202."""
        params = TINY_POINT["params"]
        bodies = [tiny_query(params=dict(params, seed=seed))
                  for seed in (7, 7.0)]
        keys = [parse_point_query(body).key for body in bodies]
        assert keys[0] != keys[1]
        for body, key in zip(bodies, keys):
            for _retry in range(3):
                response = service.query_point(dict(body, wait=True))
                assert response.status == 200, response.payload
                record = json.loads(response.payload)
                assert record["key"] == key
                assert (record["provenance"]["config"]["seed"]
                        == body["params"]["seed"])
                assert type(record["provenance"]["config"]["seed"]) is type(
                    body["params"]["seed"])
        store = ResultStore(store_root(tmp_path, root_kind))
        assert store.stats()["puts"] == 2
        assert sorted(store.keys()) == sorted(keys)
        assert store.verify().clean


class TestFailures:
    @pytest.fixture
    def broken_simulator(self, monkeypatch):
        """Every simulation raises, as if the point were chaos-killed."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected simulator fault")
        monkeypatch.setattr(suite_mod, "_run_point", boom)

    def test_failed_point_answers_5xx_with_sticky_ticket(
            self, service, broken_simulator):
        response = service.query_point(tiny_query(wait=True))
        assert response.status == 500
        assert response.payload["state"] == FAILED
        assert "injected simulator fault" in response.payload["error"]
        # The verdict is sticky: re-querying must not re-simulate.
        again = service.query_point(tiny_query(wait=True))
        assert again.status == 500
        assert service.flight.failed() == 1
        assert service.scheduler.resolved[FAILED] == 1
        key = parse_point_query(tiny_query()).key
        assert service.lookup(key).status == 500
        assert service.stats()["service"]["failed_tickets"] == 1

    def test_queue_overflow_rejects_with_503(self, tmp_path, root_kind):
        """An unstarted scheduler with a 1-slot queue fills instantly."""
        service = BenchmarkService(store_root(tmp_path, root_kind),
                                   max_queue=1)
        try:
            first = service.query_point(tiny_query())
            assert first.status == 202
            second = service.query_point(tiny_query(shuffle_gb=0.03))
            assert second.status == 503
            assert second.payload["state"] == CANCELLED
            assert service._counters["rejected"] == 1
        finally:
            service.stop(drain=False, timeout=1.0)

    def test_wait_timeout_returns_the_ticket(self, tmp_path, root_kind):
        service = BenchmarkService(store_root(tmp_path, root_kind))
        try:  # scheduler never started: the ticket cannot resolve
            response = service.query_point(tiny_query(wait=0.05))
            assert response.status == 202
            assert response.payload["state"] == "queued"
            assert response.payload["key"]
        finally:
            service.stop(drain=False, timeout=1.0)

    @pytest.mark.parametrize("body, fragment", [
        ("nope", "JSON object"),
        (tiny_query(wait="soonish"), "wait"),
        (tiny_query(wait=-2), "> 0"),
        (tiny_query(network="carrier-pigeon"), "unknown interconnect"),
    ])
    def test_bad_requests_answer_400(self, service, body, fragment):
        response = service.query_point(body)
        assert response.status == 400
        assert fragment in response.payload["error"]
        assert service._counters["bad_requests"] == 1

    @pytest.mark.parametrize("body, fragment", [
        (tiny_query(shuffle_gb=1e300), "finite"),
        (tiny_query(shuffle_gb=float("inf")), "finite"),
        (tiny_query(shuffle_gb=10**400), "must be a number"),
        (tiny_query(wait=float("nan")), "> 0"),
    ], ids=["1e300", "inf", "giant-int", "wait-nan"])
    def test_out_of_range_size_or_wait_answers_400(self, service, body,
                                                   fragment):
        """An infinite size, a size that overflows a float and a NaN
        wait are bad requests, not a raised OverflowError or an
        immediate 202."""
        response = service.query_point(body)
        assert response.status == 400
        assert fragment in response.payload["error"]
        assert service._counters["bad_requests"] == 1
        assert service._counters["cold_misses"] == 0

    @pytest.mark.parametrize("seed", [float("nan"), float("inf"), -3, 7.5])
    def test_seed_that_is_not_a_non_negative_integer_answers_400(
            self, service, seed):
        """A seed that no process can reproduce (NaN) or that numpy
        refuses is a bad request, refused before anything simulates."""
        params = dict(TINY_POINT["params"], seed=seed)
        response = service.query_point(tiny_query(params=params, wait=True))
        assert response.status == 400
        assert "seed must be a non-negative integer" in (
            response.payload["error"])
        assert service._counters["cold_misses"] == 0

    def test_unknown_key_lookup_is_404(self, service):
        response = service.lookup("deadbeef" * 8)
        assert response.status == 404
        assert service._counters["not_found"] == 1


class TestForkedWorkers:
    def test_jobs_2_serves_concurrent_cold_waits_and_reaps_its_workers(
            self, tmp_path, monkeypatch):
        """Each pass forks its workers from the scheduler thread; none
        is left behind after stop()."""
        forked_from = []
        spawn = LocalBackend._spawn_worker

        def spy(backend):
            forked_from.append(threading.current_thread().name)
            spawn(backend)

        monkeypatch.setattr(LocalBackend, "_spawn_worker", spy)
        service = BenchmarkService(tmp_path / "store", jobs=2)
        service.start()
        sizes = (0.02, 0.03, 0.04)
        responses = {}
        barrier = threading.Barrier(len(sizes))

        def client(gb):
            barrier.wait()
            responses[gb] = service.query_point(
                tiny_query(shuffle_gb=gb, wait=True))

        threads = [threading.Thread(target=client, args=(gb,))
                   for gb in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        service.stop()
        assert sorted(responses) == list(sizes)
        assert all(r.status == 200 for r in responses.values())
        assert forked_from
        assert set(forked_from) == {"repro-service-scheduler"}
        assert multiprocessing.active_children() == []
        assert ResultStore(tmp_path / "store").stats()["puts"] == 3


class TestShutdown:
    def test_drain_finishes_queued_points(self, tmp_path, root_kind):
        root = store_root(tmp_path, root_kind)
        service = BenchmarkService(root)
        tickets = []
        for gb in (0.02, 0.03, 0.04):  # queued; scheduler not running
            response = service.query_point(tiny_query(shuffle_gb=gb))
            assert response.status == 202
            tickets.append(service.flight.get(response.payload["key"]))
        service.start()
        service.stop(drain=True, timeout=60)
        assert [t.state for t in tickets] == [DONE, DONE, DONE]
        assert service.scheduler.resolved[DONE] == 3
        store = ResultStore(root)
        assert store.stats()["puts"] == 3
        assert store.verify().clean

    def test_interrupt_keeps_completed_points_durable(
            self, tmp_path, root_kind, monkeypatch):
        """The SIGINT path: in-flight unit lands, the rest cancel."""
        started = threading.Event()
        release = threading.Event()
        real_run_point = suite_mod._run_point

        def gated_run_point(*args, **kwargs):
            started.set()
            assert release.wait(30)
            return real_run_point(*args, **kwargs)

        monkeypatch.setattr(suite_mod, "_run_point", gated_run_point)
        root = store_root(tmp_path, root_kind)
        service = BenchmarkService(root)
        service.start()
        first = service.query_point(tiny_query())
        assert first.status == 202
        assert started.wait(30)  # the worker is inside point one
        later = [service.flight.get(
            service.query_point(tiny_query(shuffle_gb=gb)).payload["key"])
            for gb in (0.03, 0.04)]

        stopper = threading.Thread(
            target=service.stop, kwargs={"drain": False})
        stopper.start()
        release.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()

        ticket = service.flight.get(first.payload["key"])
        assert ticket is None  # resolved done, dropped from the table
        assert {t.state for t in later} == {CANCELLED}
        store = ResultStore(root)
        assert store.stats()["puts"] == 1  # the in-flight unit landed
        assert store.verify().clean


class TestIntrospection:
    def test_stats_carry_store_shape_and_service_counters(self, service):
        fresh = service.stats()
        assert fresh["hit_rate"] is None  # no lookups yet: null, not 0.0
        service.query_point(tiny_query(wait=True))
        service.query_point(tiny_query(wait=True))
        stats = service.stats(refresh=True)
        for key in ("backend", "records", "puts", "hits", "misses"):
            assert key in stats
        assert stats["puts"] == 1
        assert isinstance(stats["hit_rate"], float)
        servicepart = stats["service"]
        assert servicepart["requests"] == 2
        assert servicepart["warm_hits"] == 1
        assert servicepart["cold_misses"] == 1
        assert servicepart["in_flight"] == 0
        assert servicepart["resolved"][DONE] == 1
        assert servicepart["uptime_seconds"] >= 0

    def test_warm_hits_flush_into_store_counters(
            self, service, tmp_path, root_kind):
        service.query_point(tiny_query(wait=True))
        for _ in range(5):
            assert service.query_point(tiny_query()).status == 200
        stats = service.stats(refresh=True)  # flushes pending hits
        assert stats["hits"] == 5
        # And they are durable, visible to a fresh store handle.
        assert ResultStore(
            store_root(tmp_path, root_kind)).stats()["hits"] == 5

    def test_healthz_reports_ok_when_running(self, service):
        doc = service.healthz()
        assert doc["status"] == "ok"
        assert doc["scheduler_alive"] is True
        assert doc["backend"] == "sqlite"
