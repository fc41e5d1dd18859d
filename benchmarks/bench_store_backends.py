"""Store throughput on SQLite: contended tagging and a cold scan.

* **Concurrent writers.** Three worker processes hammer the store
  with counter bumps while a foreground campaign writes its tags — the
  real shape of two campaigns sharing one store. Every bump and every
  tag merge is one transaction on the same WAL-mode database; the
  guarded value is the tagger's wall-clock under that contention.
* **Exactness, always.** Whatever the timing, the run must land on the
  exact final counter totals and tag sets — a fast store that drops
  increments is a broken store.
* **Cold scan.** ``stats`` + ``ls`` over a 2000-record corpus from a
  fresh handle: SQL aggregates and an index, no record parsing.

Both timings are guarded against ``benchmarks/BENCH_store.json`` by the
shared baseline workflow (``PERF_SMOKE=1`` / ``PERF_BASELINE=1``).
"""

import multiprocessing
import os
import pathlib
import tempfile
import time

from _harness import check_or_record, one_shot, record

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite
from repro.hadoop.cluster import cluster_a
from repro.store import ResultStore, StoredResult

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_store.json"

#: Background counter-bumping processes per run.
BUMPERS = 3

#: Timed foreground tag merges per run.
TAGS = 100

#: Pre-seeded records (the tag targets).
RECORDS = 8


def _tag_keys():
    """The tag-target record keys."""
    return [f"{i:02x}" + "e" * 62 for i in range(RECORDS)]


def _bumper(args):
    """Background worker: hammer the miss counter until told to stop.

    Returns how many bumps it issued, so the parent can assert the
    final counter total is exact.
    """
    root, worker_id, stop_path = args
    store = ResultStore(root)
    count = 0
    while not os.path.exists(stop_path):
        store.get(f"{count % 16:02x}missing-{worker_id}-{count}")
        count += 1
    return count


def _seed_payload():
    """One real (tiny) simulation to serialize into the seeded records."""
    config = BenchmarkConfig.from_shuffle_size(
        2e7, pattern="avg", network="1GigE", num_maps=4, num_reduces=2,
        key_size=256, value_size=256)
    suite = MicroBenchmarkSuite(cluster=cluster_a(2))
    return StoredResult.from_sim_result(
        suite.run_config(config, memoize=False))


def _noop(_):
    """Pool warm-up task (forks the workers before any timing starts)."""


def _run_contended(payload, pool):
    """One contended tagging pass; returns (seconds, store, bumps).

    ``seconds`` is the wall-clock the foreground campaign spent writing
    its :data:`TAGS` tags while the background bumpers ran. The worker
    pool is created (and warmed) by the caller so fork startup never
    lands inside the timed window.
    """
    tmp = tempfile.mkdtemp(prefix="bench-store-")
    root = f"{tmp}/store"
    store = ResultStore(root)
    keys = _tag_keys()
    for key in keys:
        store.put(key, payload)
    stop_path = os.path.join(tmp, "stop")
    pending = pool.map_async(
        _bumper, [(root, w, stop_path) for w in range(BUMPERS)])
    # Only start the clock once every bumper is demonstrably running.
    poll = ResultStore(root)
    deadline = time.monotonic() + 30
    while poll.counters().get("misses", 0) < BUMPERS:
        assert time.monotonic() < deadline, "bumpers never started"
        time.sleep(0.01)
    start = time.perf_counter()
    for i in range(TAGS):
        store.tag(keys[i % RECORDS], "fg-campaign", {"i": i})
    seconds = time.perf_counter() - start
    pathlib.Path(stop_path).touch()
    bumps = sum(pending.get(timeout=120))
    return seconds, ResultStore(root), bumps


def _assert_exact(store, bumps):
    """Exact totals and complete tag sets, whatever the timing."""
    stats = store.stats()
    assert stats["misses"] == bumps
    assert stats["puts"] == RECORDS
    assert stats["records"] == RECORDS
    tagged = {key: set(rec["tags"]) for key, rec in store.records()}
    for key in _tag_keys():
        assert tagged[key] == {"fg-campaign"}


def bench_store_concurrent_writers(benchmark):
    """Contended tag throughput under concurrent counter writers."""
    payload = _seed_payload()

    def run():
        with multiprocessing.Pool(BUMPERS) as pool:
            pool.map(_noop, range(BUMPERS))  # fork before the clock
            seconds, store, bumps = _run_contended(payload, pool)
            _assert_exact(store, bumps)
        return seconds

    seconds = one_shot(benchmark, run)
    record(
        "perf_store_backends",
        f"store tag throughput under {BUMPERS} concurrent counter "
        f"writers ({TAGS} tags):\n"
        f"  sqlite (WAL): {seconds:.3f}s\n",
    )
    check_or_record(
        "store_concurrent_writers",
        {"seconds": seconds, "tags": TAGS, "bumpers": BUMPERS},
        BASELINE_PATH,
        # Contended wall-clock is scheduler-noisy.
        factor=4.0,
    )


def bench_store_cold_scan(benchmark):
    """Cold ``stats`` + ``ls`` over a 2000-record corpus."""
    n = 2000
    document = {"schema": 1, "provenance": {}, "tags": {},
                "result": {"execution_time": 1.0}}
    root = f"sqlite:{tempfile.mkdtemp(prefix='bench-store-scan-')}/db.sqlite"
    ResultStore(root).write_records(
        (f"{i:064x}", dict(document, key=f"{i:064x}")) for i in range(n))

    def run():
        cold = ResultStore(root)  # fresh handle = cold scan
        start = time.perf_counter()
        stats = cold.stats()
        keys = list(cold.keys())
        seconds = time.perf_counter() - start
        assert stats["records"] == n and len(keys) == n
        return seconds

    seconds = one_shot(benchmark, run)
    record(
        "perf_store_cold_scan",
        f"cold stats+ls over {n} records:\n"
        f"  sqlite: {seconds:.3f}s\n",
    )
    check_or_record(
        "store_cold_scan_2000",
        {"seconds": seconds, "records": n},
        BASELINE_PATH,
    )
