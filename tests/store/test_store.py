"""ResultStore behavior: round-trips, counters, corruption, gc.

Every class here runs against both root spellings (``root_kind`` /
``make_store`` from ``conftest.py``): the store contract — not where
the database lives — is what these tests pin down.
"""

import json
import warnings

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.hadoop.cluster import cluster_a
from repro.store import (
    ResultStore,
    ResultStoreWarning,
    StoredResult,
    point_key,
)

from tests.store.conftest import (
    load_record,
    record_text,
    rewrite_record,
    store_root,
)


def tiny_config(network="1GigE", **overrides):
    kwargs = dict(num_maps=4, num_reduces=2, key_size=256, value_size=256)
    kwargs.update(overrides)
    return BenchmarkConfig.from_shuffle_size(2e7, pattern="avg",
                                             network=network, **kwargs)


@pytest.fixture(scope="module")
def sim_result():
    """One real (tiny) simulation to serialize."""
    suite = MicroBenchmarkSuite(cluster=cluster_a(2))
    return suite.run_config(tiny_config())


class TestRoundTrip:
    def test_put_get_round_trip(self, make_store, sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.cached is True
        # Bit-identical: JSON round-trips repr(float) exactly.
        assert (loaded.execution_time.hex()
                == sim_result.execution_time.hex())
        assert loaded.interconnect_name == sim_result.interconnect_name
        assert loaded.config == sim_result.config

    def test_phase_breakdown_survives(self, make_store, sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        loaded = store.get(key)
        original = sim_result.phase_breakdown().totals()
        restored = loaded.phase_breakdown().totals()
        for phase, seconds in original.items():
            assert restored[phase].hex() == seconds.hex()

    def test_summary_shape_matches_sim_result(self, tmp_path, sim_result):
        stored = StoredResult.from_sim_result(sim_result)
        live = sim_result.summary()
        warm = stored.summary()
        assert warm == live


class TestCounters:
    def test_stats_progression(self, make_store, sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        assert store.get(key) is None
        store.put(key, StoredResult.from_sim_result(sim_result))
        assert store.get(key) is not None
        stats = store.stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["records"] == 1

    def test_counters_persist_across_instances(self, make_store,
                                               sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        assert make_store().stats()["puts"] == 1

    def test_contains_does_not_bump_counters(self, make_store, sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        assert not store.contains(key)
        store.put(key, StoredResult.from_sim_result(sim_result))
        assert store.contains(key)
        stats = store.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0

    def test_stats_name_the_backend(self, make_store):
        assert make_store().stats()["backend"] == "sqlite"


class TestCorruption:
    def test_corrupted_record_warns_and_misses(self, make_store,
                                               sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        rewrite_record(store, key, "{ not json")
        with pytest.warns(ResultStoreWarning):
            assert store.get(key) is None

    def test_malformed_payload_warns_and_misses(self, make_store,
                                                sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        record = load_record(store, key)
        del record["result"]["execution_time"]
        rewrite_record(store, key, json.dumps(record))
        with pytest.warns(ResultStoreWarning):
            assert store.get(key) is None

    def test_corruption_never_poisons_the_suite(self, tmp_path,
                                                root_kind):
        """A bad record re-simulates instead of crashing the run."""
        root = store_root(tmp_path, root_kind)
        config = tiny_config()
        clear_result_cache()
        suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        result = suite.run_config(config)
        rewrite_record(ResultStore(root), suite.store_key(config),
                       "garbage")
        clear_result_cache()
        suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        with pytest.warns(ResultStoreWarning):
            again = suite.run_config(config)
        assert again.execution_time.hex() == result.execution_time.hex()
        clear_result_cache()

    def test_wrong_schema_is_a_clean_miss(self, make_store, sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        record = load_record(store, key)
        record["schema"] = 999
        rewrite_record(store, key, json.dumps(record))
        assert store.get(key) is None  # no warning: just stale
        assert store.stats()["stale_records"] == 1


class TestMaintenance:
    def _fill(self, make_store, sim_result, n=2):
        store = make_store()
        keys = []
        for seed in range(n):
            config = tiny_config(seed=seed + 1)
            key = point_key(config, cluster_a(2))
            store.put(key, StoredResult.from_sim_result(sim_result))
            keys.append(key)
        return store, keys

    def test_keys_and_records(self, make_store, sim_result):
        store, keys = self._fill(make_store, sim_result)
        assert list(store.keys()) == sorted(keys)
        assert {k for k, _rec in store.records()} == set(keys)

    def test_gc_removes_only_stale(self, make_store, sim_result):
        store, keys = self._fill(make_store, sim_result)
        record = load_record(store, keys[0])
        record["schema"] = 999
        rewrite_record(store, keys[0], json.dumps(record))
        assert store.gc() == 1
        assert list(store.keys()) == sorted(keys[1:])

    def test_gc_all(self, make_store, sim_result):
        store, _keys = self._fill(make_store, sim_result)
        assert store.gc(remove_all=True) == 2
        assert list(store.keys()) == []

    def test_export_jsonl(self, make_store, sim_result):
        store, keys = self._fill(make_store, sim_result)
        lines = list(store.export())
        assert len(lines) == 2
        exported = {json.loads(line)["key"] for line in lines}
        assert exported == set(keys)

    def test_tag_merges(self, make_store, sim_result):
        store, keys = self._fill(make_store, sim_result, n=1)
        store.tag(keys[0], "camp-a", {"trial": 0})
        store.tag(keys[0], "camp-b", {"trial": 1})
        record = dict(store.records())[keys[0]]
        assert set(record["tags"]) == {"camp-a", "camp-b"}

    def test_campaign_keys_filters(self, make_store, sim_result):
        store, keys = self._fill(make_store, sim_result, n=2)
        store.tag(keys[0], "camp-a", {"trial": 0})
        assert store.campaign_keys("camp-a") == [keys[0]]
        assert store.campaign_keys("camp-b") == []


class TestSingularIsOneElementBatch:
    """``get``/``put``/``tag`` agree with ``get_batch``/``put_many``/
    ``tag_many`` on a hit, a miss, a corrupt and a stale record."""

    HIT, MISS, CORRUPT, STALE = ("aa" * 32, "bb" * 32, "cc" * 32,
                                 "dd" * 32)
    KEYS = (HIT, MISS, CORRUPT, STALE)

    def _seeded(self, make_store, name, sim_result):
        store = make_store(name)
        stored = StoredResult.from_sim_result(sim_result)
        for key in (self.HIT, self.CORRUPT, self.STALE):
            store.put(key, stored)
        rewrite_record(store, self.CORRUPT, "{ not json")
        record = load_record(store, self.STALE)
        record["schema"] = 999
        rewrite_record(store, self.STALE, json.dumps(record))
        return store

    @staticmethod
    def _texts(store, keys):
        return {key: record_text(store, key) for key in keys}

    def test_get_matches_get_batch(self, make_store, sim_result):
        single = self._seeded(make_store, "single", sim_result)
        batch = self._seeded(make_store, "batch", sim_result)
        with warnings.catch_warnings(record=True) as single_warnings:
            warnings.simplefilter("always")
            one_by_one = [single.get(key) for key in self.KEYS]
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            together = batch.get_batch(self.KEYS)
        assert one_by_one[0] is not None
        assert one_by_one[1:] == [None, None, None]
        assert one_by_one == together
        assert single.counters() == batch.counters()
        assert batch.counters() == {"puts": 3, "hits": 1,
                                            "misses": 3}
        assert len(single_warnings) == len(batch_warnings) == 1

    def test_put_matches_put_many(self, make_store, sim_result):
        stored = StoredResult.from_sim_result(sim_result)
        entries = [(key, stored, {"point": i}, {"camp": {"i": i}})
                   for i, key in enumerate(self.KEYS)]
        entries[0] = (self.HIT, stored, None, None)
        single, batch = make_store("single"), make_store("batch")
        paths = [single.put(*entry) for entry in entries]
        assert paths == [single.location] * len(entries)
        assert batch.put_many(entries) == [batch.location] * 4
        assert (self._texts(single, self.KEYS)
                == self._texts(batch, self.KEYS))
        assert single.stats()["puts"] == batch.stats()["puts"] == 4

    def test_tag_matches_tag_many(self, make_store, sim_result):
        single = self._seeded(make_store, "single", sim_result)
        batch = self._seeded(make_store, "batch", sim_result)
        entries = [(key, "camp", {"i": i})
                   for i, key in enumerate(self.KEYS)]
        with warnings.catch_warnings(record=True) as single_warnings:
            warnings.simplefilter("always")
            tagged = [single.tag(*entry) for entry in entries]
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            count = batch.tag_many(entries)
        assert tagged == [True, False, False, False]
        assert count == sum(tagged)
        present = (self.HIT, self.CORRUPT, self.STALE)
        assert self._texts(single, present) == self._texts(batch, present)
        assert single.campaign_keys("camp") == batch.campaign_keys("camp")
        assert len(single_warnings) == len(batch_warnings) == 1


class TestPutIsOneTransaction:
    """A put's records and its ``puts`` count commit together."""

    def test_death_at_the_counter_upsert_leaves_neither(
            self, make_store, sim_result, monkeypatch):
        import repro.store.store as store_mod

        class Killed(BaseException):
            """The writer dying between the record and the count."""

        real_execute = store_mod._execute

        def dying(db, sql, params=()):
            if sql.startswith("INSERT INTO counters"):
                raise Killed()
            return real_execute(db, sql, params)

        store = make_store()
        monkeypatch.setattr(store_mod, "_execute", dying)
        with pytest.raises(Killed):
            store.put_many([("ab" * 32, StoredResult.from_sim_result(
                sim_result), None, None)])
        monkeypatch.undo()
        fresh = make_store()
        assert list(fresh.keys()) == []
        assert fresh.counters()["puts"] == 0
        assert not fresh.read_only


class TestStatsCache:
    """stats() caching: explicit snapshot vs explicit refresh.

    The service's /v1/stats endpoint serves the cached snapshot so a
    hot stats path never walks the store per request; correctness of
    the snapshot/refresh contract is pinned here, on both backends.
    """

    def test_default_stats_recompute_and_cache(self, make_store,
                                               sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        assert store.stats()["puts"] == 1
        store.put("00extra" + key[:8],
                  StoredResult.from_sim_result(sim_result))
        assert store.stats()["puts"] == 2  # default path re-reads

    def test_cached_stats_are_a_stable_snapshot(self, make_store,
                                                sim_result):
        store = make_store()
        key = point_key(sim_result.config, cluster_a(2))
        store.put(key, StoredResult.from_sim_result(sim_result))
        snapshot = store.stats()
        store.put("00extra" + key[:8],
                  StoredResult.from_sim_result(sim_result))
        assert store.stats(cached=True) == snapshot  # stale by design
        store.stats()
        assert store.stats(cached=True)["puts"] == 2

    def test_cached_without_snapshot_computes_one(self, make_store):
        assert make_store().stats(cached=True)["puts"] == 0

    def test_returned_dict_is_a_copy(self, make_store):
        store = make_store()
        stats = store.stats()
        stats["puts"] = 999
        assert store.stats(cached=True)["puts"] == 0


class TestHitRate:
    def test_no_lookups_is_none_not_zero(self):
        from repro.store import hit_rate

        assert hit_rate({"hits": 0, "misses": 0}) is None

    def test_percentage_of_lookups(self):
        from repro.store import hit_rate

        assert hit_rate({"hits": 3, "misses": 1}) == 75.0
        assert hit_rate({"hits": 0, "misses": 5}) == 0.0


class TestRootResolution:
    """Every root spelling names one SQLite database file."""

    def test_spellings(self, tmp_path):
        from repro.store import resolve_root

        existing = tmp_path / "plain-file"
        existing.write_bytes(b"")
        assert resolve_root(tmp_path / "dir") == (
            tmp_path / "dir" / "store.sqlite", str(tmp_path / "dir"))
        assert resolve_root(f"sqlite:{tmp_path / 'a'}") == (
            tmp_path / "a", str(tmp_path / "a"))
        assert resolve_root(tmp_path / "b.db")[0] == tmp_path / "b.db"
        assert resolve_root(existing)[0] == existing

    def test_backend_env_var_accepts_only_sqlite(self, tmp_path,
                                                 monkeypatch):
        from repro.store import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        assert ResultStore(tmp_path / "s").stats()["backend"] == "sqlite"
        monkeypatch.setenv(BACKEND_ENV_VAR, "filesystem")
        with pytest.raises(ValueError, match="only backend is sqlite"):
            ResultStore(tmp_path / "f")
