"""Inter-process store concurrency: exact counts and busy retries.

The headline hardening bug this file pins: store counter updates were
once read-modify-write with no inter-process exclusion, so two
concurrent ``campaign run`` processes lost puts/hits/misses
increments. The multiprocess stress class runs against both root
spellings and must land on the exact final count, and re-puts racing
tag passes must leave every tag in place and the tags index agreeing
with the record text; the busy-retry class pins that a transient
``SQLITE_BUSY`` neither degrades the store nor turns a read into a
miss.
"""

import multiprocessing

import pytest

from repro.store import ResultStore

from tests.store.conftest import store_root

pytestmark = pytest.mark.filterwarnings("error::UserWarning")


def _miss_worker(args):
    """Stress worker: each miss is one counted lookup."""
    root, worker_id, count = args
    store = ResultStore(root)
    for i in range(count):
        store.get(f"{i % 16:02x}missing-{worker_id}-{i}")


def _put_worker(args):
    """Stress worker for puts: records + counter, concurrently."""
    import warnings

    from repro.store import StoredResult

    root, worker_id, count, payload = args
    store = ResultStore(root)
    result = StoredResult.from_dict(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(count):
            store.put(f"{i % 16:02x}{worker_id}{i:04d}" + "f" * 48, result)


def _tag_worker(args):
    """Stress worker for tags: concurrent campaigns tag shared records."""
    root, worker_id, keys = args
    store = ResultStore(root)
    for key in keys:
        store.tag(key, f"campaign-{worker_id}", {"w": worker_id})


def _reput_or_tag_worker(args):
    """Stress worker: re-put records without tags, or tag passes of one
    campaign whose meta flips every round (so each pass rewrites)."""
    import warnings

    from repro.store import StoredResult

    root, role, keys, rounds, payload = args
    store = ResultStore(root)
    result = StoredResult.from_dict(payload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for round_ in range(rounds):
            if role.startswith("put"):
                store.put_many([(key, result, None, None) for key in keys])
            else:
                store.tag_many([(key, role, {"round": round_ % 2})
                                for key in keys])


class TestConcurrentCounters:
    """Concurrent campaigns must not lose increments."""

    WORKERS = 4
    PER_WORKER = 25

    def test_concurrent_misses_count_exactly(self, tmp_path, root_kind):
        root = store_root(tmp_path, root_kind)
        with multiprocessing.Pool(self.WORKERS) as pool:
            pool.map(_miss_worker,
                     [(root, w, self.PER_WORKER)
                      for w in range(self.WORKERS)])
        stats = ResultStore(root).stats()
        assert stats["misses"] == self.WORKERS * self.PER_WORKER
        assert stats["hits"] == 0
        assert stats["puts"] == 0

    def test_concurrent_puts_count_exactly(self, tmp_path, root_kind,
                                           sim_result):
        from repro.store import StoredResult

        root = store_root(tmp_path, root_kind)
        payload = StoredResult.from_sim_result(sim_result).to_dict()
        with multiprocessing.Pool(self.WORKERS) as pool:
            pool.map(_put_worker,
                     [(root, w, self.PER_WORKER, payload)
                      for w in range(self.WORKERS)])
        store = ResultStore(root)
        assert store.stats()["puts"] == self.WORKERS * self.PER_WORKER
        assert len(list(store.keys())) == self.WORKERS * self.PER_WORKER

    def test_concurrent_tags_never_drop_each_other(self, tmp_path,
                                                   root_kind,
                                                   sim_result):
        """Four campaigns tag the same records; all four tags survive."""
        from repro.store import StoredResult

        root = store_root(tmp_path, root_kind)
        store = ResultStore(root)
        result = StoredResult.from_sim_result(sim_result)
        keys = [f"{i:02x}" + "a" * 62 for i in range(8)]
        for key in keys:
            store.put(key, result)
        with multiprocessing.Pool(self.WORKERS) as pool:
            pool.map(_tag_worker,
                     [(root, w, keys) for w in range(self.WORKERS)])
        expected = {f"campaign-{w}" for w in range(self.WORKERS)}
        for _key, record in ResultStore(root).records():
            assert set(record["tags"]) == expected

    def test_reputs_racing_tag_passes_keep_index_and_text_agreed(
            self, tmp_path, root_kind, sim_result):
        """Two processes re-put the records without tags while two run
        tag passes of two campaigns over them. Puts keep the tags, so
        both campaigns are complete as soon as the workers finish, one
        final pass per campaign counts every record, and the tags index
        agrees with every record's text."""
        from repro.store import StoredResult

        root = store_root(tmp_path, root_kind)
        store = ResultStore(root)
        result = StoredResult.from_sim_result(sim_result)
        keys = [f"{i:02x}" + "b" * 62 for i in range(8)]
        store.put_many([(key, result, None, None) for key in keys])
        roles = ["put-0", "put-1", "camp-0", "camp-1"]
        with multiprocessing.Pool(len(roles)) as pool:
            pool.map(_reput_or_tag_worker,
                     [(root, role, keys, 10, result.to_dict())
                      for role in roles])
        for campaign in ("camp-0", "camp-1"):
            assert store.campaign_keys(campaign) == sorted(keys)
        for campaign in ("camp-0", "camp-1"):
            assert store.tag_many([(key, campaign, {"final": True})
                                   for key in keys]) == len(keys)
            assert store.campaign_keys(campaign) == sorted(keys)
        for _key, record in store.records():
            assert record["tags"] == {"camp-0": {"final": True},
                                      "camp-1": {"final": True}}
        assert store.verify().clean
        assert store.stats()["puts"] == len(keys) * 21


@pytest.fixture(scope="module")
def sim_result():
    """One real (tiny) simulation to serialize in stress puts."""
    from repro.core.config import BenchmarkConfig
    from repro.core.suite import MicroBenchmarkSuite
    from repro.hadoop.cluster import cluster_a

    config = BenchmarkConfig.from_shuffle_size(
        2e7, pattern="avg", network="1GigE", num_maps=4, num_reduces=2,
        key_size=256, value_size=256)
    return MicroBenchmarkSuite(cluster=cluster_a(2)).run_config(
        config, memoize=False)


class TestSqliteBusyRetry:
    """Transient ``SQLITE_BUSY`` is contention, not unwritability.

    SQLite returns it without consulting the busy handler in a few
    windows (fresh-database journal-mode transition, deadlock-avoidance
    lock upgrades); the backend must retry instead of silently
    degrading to read-only and dropping the write — or, on a read,
    warning and answering a miss for a record that is there.
    """

    @staticmethod
    def _flaky_execute(monkeypatch, failures):
        import sqlite3

        import repro.store.store as store_mod

        real_execute = store_mod._execute

        def flaky(db, sql, params=()):
            head = sql.lstrip().split(None, 1)[0].upper()
            if head not in ("SELECT", "PRAGMA") and failures["left"]:
                failures["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return real_execute(db, sql, params)

        monkeypatch.setattr(store_mod, "_execute", flaky)

    def test_transient_busy_retries_instead_of_degrading(
            self, tmp_path, monkeypatch):
        store = ResultStore(store_root(tmp_path, "sqlite"))
        failures = {"left": 3}
        self._flaky_execute(monkeypatch, failures)
        # error::UserWarning module filter: a degrade warning would
        # raise here instead of being swallowed.
        store.bump_counters({"puts": 5})
        assert failures["left"] == 0  # the busy window was actually hit
        assert store.read_only is False
        assert store.counters()["puts"] == 5

    def test_persistent_busy_eventually_degrades(self, tmp_path,
                                                 monkeypatch):
        from repro.store import ResultStoreWarning

        store = ResultStore(store_root(tmp_path, "sqlite"))
        failures = {"left": 10 ** 9}
        self._flaky_execute(monkeypatch, failures)
        with pytest.warns(ResultStoreWarning, match="read-only"):
            store.bump_counters({"puts": 1})
        assert store.read_only is True

    @staticmethod
    def _busy_once(monkeypatch, statement):
        """Fail the first statement starting with ``statement`` once."""
        import sqlite3

        import repro.store.store as store_mod

        real_execute = store_mod._execute
        failures = {"left": 1}

        def flaky(db, sql, params=()):
            if sql.lstrip().startswith(statement) and failures["left"]:
                failures["left"] -= 1
                raise sqlite3.OperationalError("database is locked")
            return real_execute(db, sql, params)

        monkeypatch.setattr(store_mod, "_execute", flaky)
        return failures

    @pytest.mark.parametrize("statement", ["PRAGMA journal_mode",
                                           "SELECT"])
    def test_transient_busy_read_still_hits(self, tmp_path, monkeypatch,
                                            sim_result, statement):
        """A busy read of a stored record is a hit, not a warned miss."""
        from repro.store import StoredResult

        root = store_root(tmp_path, "sqlite")
        writer = ResultStore(root)
        writer.put("ab" * 32, StoredResult.from_sim_result(sim_result))
        writer.close()
        reader = ResultStore(root)  # fresh: no connection yet
        failures = self._busy_once(monkeypatch, statement)
        # error::UserWarning module filter: an "unreadable store
        # database" warning would raise here.
        assert reader.get("ab" * 32) is not None
        assert failures["left"] == 0  # the busy window was actually hit

    @pytest.mark.parametrize("statement", ["PRAGMA journal_mode",
                                           "SELECT"])
    def test_transient_busy_stats_reads_true_counters(
            self, tmp_path, monkeypatch, statement):
        root = store_root(tmp_path, "sqlite")
        writer = ResultStore(root)
        writer.bump_counters({"puts": 2, "hits": 3, "misses": 4})
        writer.close()
        reader = ResultStore(root)
        failures = self._busy_once(monkeypatch, statement)
        stats = reader.stats()
        assert failures["left"] == 0
        assert (stats["puts"], stats["hits"], stats["misses"]) == (2, 3, 4)
