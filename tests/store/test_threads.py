"""One store instance shared across threads — the service's shape.

The benchmark service hands a single :class:`ResultStore` to its HTTP
worker threads and its scheduler thread simultaneously. That shape
used to break on sqlite: the backend cached one connection per
*process*, so the first cross-thread call died with sqlite3's
``objects created in a thread can only be used in that same thread``.
These tests hammer one backend instance from eight threads, through
both root spellings, and assert the exact final counts — no
exceptions, no lost increments, no torn records.
"""

import threading

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite
from repro.hadoop.cluster import cluster_a
from repro.store import ResultStore, StoredResult

THREADS = 8
OPS = 25


@pytest.fixture(scope="module")
def stored_result():
    """One real (tiny) simulation result to write from every thread."""
    config = BenchmarkConfig.from_shuffle_size(
        2e7, pattern="avg", network="1GigE",
        num_maps=4, num_reduces=2, key_size=256, value_size=256)
    suite = MicroBenchmarkSuite(cluster=cluster_a(2))
    return StoredResult.from_sim_result(suite.run_config(config))


class TestSharedInstanceAcrossThreads:
    def test_eight_threads_hammer_one_instance(self, make_store,
                                               stored_result):
        """Regression: puts+hits+misses from 8 threads, one backend."""
        store = make_store()
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(worker_id):
            barrier.wait()
            try:
                for i in range(OPS):
                    key = f"{i % 16:02x}thread-{worker_id}-{i}"
                    store.put(key, stored_result)
                    assert store.get(key) is not None
                    store.get(f"{i % 16:02x}gone-{worker_id}-{i}")
                    store.stats()
            except Exception as exc:  # collected, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(worker_id,))
                   for worker_id in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        stats = store.stats()
        assert stats["puts"] == THREADS * OPS
        assert stats["hits"] == THREADS * OPS
        assert stats["misses"] == THREADS * OPS
        assert stats["records"] == THREADS * OPS
        assert store.verify().clean

    def test_close_then_reuse_reacquires(self, make_store, stored_result):
        """close() ends handles; the next call transparently reopens."""
        store = make_store()
        store.put("00close-key", stored_result)
        store.close()
        assert store.get("00close-key") is not None

    def test_close_from_another_thread(self, make_store, stored_result):
        """Cross-thread close (the service's shutdown path) is safe."""
        store = make_store()
        store.put("00cross-key", stored_result)
        closer = threading.Thread(target=store.close)
        closer.start()
        closer.join(timeout=30)
        assert store.get("00cross-key") is not None


class TestSqliteConnectionCache:
    def test_each_thread_gets_its_own_connection(self, tmp_path):
        backend = ResultStore(f"sqlite:{tmp_path / 's.sqlite'}")
        conn_ids = {}
        barrier = threading.Barrier(4)

        def grab(worker_id):
            barrier.wait()
            conn_ids[worker_id] = id(backend._db())

        threads = [threading.Thread(target=grab, args=(worker_id,))
                   for worker_id in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(conn_ids) == 4
        assert len(set(conn_ids.values())) == 4

    def test_connection_is_reused_within_a_thread(self, tmp_path):
        backend = ResultStore(f"sqlite:{tmp_path / 's.sqlite'}")
        assert backend._db() is backend._db()

    def test_close_invalidates_every_thread_cache(self, tmp_path):
        backend = ResultStore(f"sqlite:{tmp_path / 's.sqlite'}")
        first = backend._db()
        backend.close()
        second = backend._db()
        assert second is not first
