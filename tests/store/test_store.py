"""ResultStore behavior: round-trips, counters, corruption, gc.

Every class here runs against both root spellings (``root_kind`` /
``make_store`` from ``conftest.py``): the facade contract — not where
the database lives — is what these tests pin down.
"""

import json

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

from tests.store.conftest import load_record, rewrite_record, store_root


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
        store.refresh_stats()
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
