"""Store hardening: verify fsck, degradation, truncation, quarantine.

The contract classes run against both root spellings. The two classes
pinned to the import path (``TestTruncatedMetadata``, counter files;
``TestUnreadableLedgerFile``, the quarantine JSON file) exercise the
file-level damage an old directory store can carry into
``repro store migrate``.
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
    migrate_store,
    point_key,
)

from tests.store.conftest import (
    break_writes,
    corrupt_checkpoint,
    corrupt_metadata,
    load_record,
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
    suite = MicroBenchmarkSuite(cluster=cluster_a(2))
    return suite.run_config(tiny_config(), memoize=False)


def _fill(tmp_path, root_kind, n=2):
    """A store with n records written the real way (with provenance)."""
    root = store_root(tmp_path, root_kind)
    clear_result_cache()
    suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
    keys = []
    for seed in range(n):
        config = tiny_config(seed=seed + 1)
        suite.run_config(config)
        keys.append(suite.store_key(config))
    clear_result_cache()
    return ResultStore(root), keys


class TestVerify:
    def test_clean_store_verifies(self, tmp_path, root_kind):
        store, _keys = _fill(tmp_path, root_kind)
        report = store.verify()
        assert report.clean
        assert report.checked == 2 and report.ok == 2
        assert report.problems == []

    def test_unparsable_record_is_reported(self, tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        rewrite_record(store, keys[0], "{ nope")
        report = store.verify()
        assert not report.clean
        assert len(report.problems) == 1
        assert "unparsable" in report.problems[0].problem

    def test_key_mismatch_is_reported(self, tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        record = load_record(store, keys[0])
        record["key"] = "f" * 64
        rewrite_record(store, keys[0], json.dumps(record))
        report = store.verify()
        assert any("key mismatch" in p.problem for p in report.problems)

    def test_stale_schema_is_reported(self, tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        record = load_record(store, keys[0])
        record["schema"] = 999
        rewrite_record(store, keys[0], json.dumps(record))
        report = store.verify()
        assert any("stale schema" in p.problem for p in report.problems)

    def test_malformed_payload_is_reported(self, tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        record = load_record(store, keys[0])
        del record["result"]["execution_time"]
        rewrite_record(store, keys[0], json.dumps(record))
        report = store.verify()
        assert any("malformed result" in p.problem for p in report.problems)

    def test_tampered_provenance_is_reported(self, tmp_path, root_kind):
        """The content-address must actually address the content."""
        store, keys = _fill(tmp_path, root_kind)
        record = load_record(store, keys[0])
        record["provenance"]["config"]["seed"] = 424242
        rewrite_record(store, keys[0], json.dumps(record))
        report = store.verify()
        assert any("provenance does not hash" in p.problem
                   for p in report.problems)

    def test_verify_gc_sweeps_only_problems(self, tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        rewrite_record(store, keys[0], "garbage")
        report = store.verify(gc=True)
        assert report.swept == 1
        assert list(store.keys()) == sorted(keys[1:])
        assert store.verify().clean

    def test_corrupt_metadata_flagged(self, tmp_path, root_kind):
        store, _keys = _fill(tmp_path, root_kind)
        corrupt_metadata(store)
        # A fresh handle, as a later inspection process would open.
        fresh = ResultStore(store_root(tmp_path, root_kind))
        with pytest.warns(ResultStoreWarning):
            report = fresh.verify()
        assert report.meta_ok is False

    def test_stats_on_a_damaged_database_warns_once(self, tmp_path,
                                                    root_kind):
        store, _keys = _fill(tmp_path, root_kind)
        corrupt_metadata(store)
        fresh = ResultStore(store_root(tmp_path, root_kind))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stats = fresh.stats()
        assert [w.category for w in caught] == [ResultStoreWarning]
        assert "unreadable" in str(caught[0].message)
        assert (stats["records"], stats["puts"], stats["quarantined"],
                stats["leases"]) == (0, 0, 0, 0)


class TestTagIndexCheck:
    """``verify`` holds the tags index to the record text it indexes,
    and ``verify(gc=True)`` rebuilds the index instead of deleting a
    sound result. Rows are added, deleted and altered through SQL."""

    @staticmethod
    def _tagged(tmp_path, root_kind):
        store, keys = _fill(tmp_path, root_kind)
        store.tag_many([(key, "camp", {"trial": i})
                        for i, key in enumerate(keys)])
        assert store.verify().clean
        return store, keys

    @staticmethod
    def _sql(store, sql, params=()):
        db = store._db()
        with db:
            db.execute(sql, params)

    @staticmethod
    def _records(store):
        return store._db().execute(
            "SELECT key, record FROM records ORDER BY key").fetchall()

    def _check_repaired(self, store, keys, texts, problem):
        report = store.verify()
        assert [(p.key, p.problem) for p in report.problems] == [
            (keys[0], problem)]
        assert report.checked == 2 and report.ok == 1
        report = store.verify(gc=True)
        assert report.swept == 1
        assert store.verify().clean
        assert self._records(store) == texts
        assert store.campaign_keys("camp") == sorted(keys)

    def test_deleted_row_is_reported_and_rebuilt(self, tmp_path, root_kind):
        store, keys = self._tagged(tmp_path, root_kind)
        texts = self._records(store)
        self._sql(store, "DELETE FROM tags WHERE key = ?", (keys[0],))
        self._check_repaired(store, keys, texts,
                             "tags index disagrees with the record's tags")

    def test_added_row_is_reported_and_dropped(self, tmp_path, root_kind):
        store, keys = self._tagged(tmp_path, root_kind)
        texts = self._records(store)
        self._sql(store, "INSERT INTO tags (key, campaign, meta) "
                         "VALUES (?, 'ghost', '{}')", (keys[0],))
        self._check_repaired(store, keys, texts,
                             "tags index disagrees with the record's tags")
        assert store.campaign_keys("ghost") == []

    @pytest.mark.parametrize("meta", ['{"trial": 99}', '{"trial":0}',
                                      None, "{ nope"])
    def test_altered_meta_is_reported_and_rebuilt(self, tmp_path,
                                                  root_kind, meta):
        """Any meta text but the one ``_publish`` writes is drift, even a
        value-equal spelling."""
        store, keys = self._tagged(tmp_path, root_kind)
        texts = self._records(store)
        self._sql(store, "UPDATE tags SET meta = ? WHERE key = ?",
                  (meta, keys[0]))
        self._check_repaired(store, keys, texts,
                             "tags index disagrees with the record's tags")

    def test_orphan_rows_are_reported_and_dropped(self, tmp_path,
                                                  root_kind):
        store, keys = self._tagged(tmp_path, root_kind)
        texts = self._records(store)
        orphan = "ee" * 32
        for campaign in ("camp", "other"):
            self._sql(store, "INSERT INTO tags (key, campaign, meta) "
                             "VALUES (?, ?, '{}')", (orphan, campaign))
        report = store.verify()
        assert [(p.key, p.problem) for p in report.problems] == [
            (orphan, "2 tag row(s) with no record")]
        assert report.checked == report.ok == 2
        assert store.verify(gc=True).swept == 1
        assert store.verify().clean
        assert self._records(store) == texts
        assert store.campaign_keys("camp") == sorted(keys)
        assert store.campaign_keys("other") == []

    def test_a_failing_record_is_still_swept(self, tmp_path, root_kind):
        """A record with a real problem is reported for it (not for its
        rows) and swept with its rows."""
        store, keys = self._tagged(tmp_path, root_kind)
        rewrite_record(store, keys[0], "garbage")
        self._sql(store, "DELETE FROM tags WHERE key = ?", (keys[1],))
        problems = {p.key: p.problem for p in store.verify().problems}
        assert problems[keys[0]].startswith("unparsable")
        assert problems[keys[1]] == (
            "tags index disagrees with the record's tags")
        assert store.verify(gc=True).swept == 2
        assert store.verify().clean
        assert list(store.keys()) == [keys[1]]
        assert store.campaign_keys("camp") == [keys[1]]


def _old_directory_store(tmp_path, files):
    """A minimal old-layout directory store: ``files`` (relative path ->
    text) plus one record, as an older release's directory backend
    left them."""
    root = tmp_path / "old"
    for name, payload in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload)
    record = root / "objects" / "ab" / ("ab" * 32 + ".json")
    record.parent.mkdir(parents=True)
    record.write_text(json.dumps({"key": "ab" * 32, "schema": 0}))
    return root


class TestTruncatedMetadata:
    """Truncated counter files of an old directory store warn on import
    and count as zero, as they did in the release that wrote them; the
    readable files still add up."""

    def test_truncated_shard_reinitializes_counters(self, tmp_path):
        root = _old_directory_store(tmp_path, {
            "counters/shard-01.json": '{"puts": 2, "hi',  # killed mid-write
            "counters/shard-02.json": '{"puts": 3, "schema": 1}'})
        with pytest.warns(ResultStoreWarning, match="shard-01"):
            report = migrate_store(str(root), str(tmp_path / "new"))
        assert report.counters == {"puts": 3}
        assert report.records == 1

    def test_truncated_legacy_meta_reinitializes(self, tmp_path):
        """A corrupt pre-shard ``store.json`` is tolerated the same way."""
        root = _old_directory_store(tmp_path, {
            "store.json": '{"puts": 2, "hi',
            "counters/shard-01.json": '{"puts": 2, "schema": 1}'})
        with pytest.warns(ResultStoreWarning, match="store.json"):
            report = migrate_store(str(root), str(tmp_path / "new"))
        assert ResultStore(str(tmp_path / "new")).stats()["puts"] == 2
        assert report.counters == {"puts": 2}

    def test_legacy_counters_aggregate_with_shards(self, tmp_path):
        """Pre-shard ``store.json`` counters add onto the shards."""
        root = _old_directory_store(tmp_path, {
            "store.json": json.dumps(
                {"schema": 1, "puts": 5, "hits": 1, "misses": 0}),
            "counters/shard-03.json": json.dumps(
                {"schema": 1, "puts": 2, "hits": 0, "misses": 2})})
        migrate_store(str(root), str(root))
        stats = ResultStore(str(root)).stats()
        assert stats["puts"] == 7  # 5 legacy + 2 sharded
        assert stats["hits"] == 1
        assert stats["misses"] == 2


class TestReadOnlyDegradation:
    """Unwritable/full roots degrade to read-only; simulation goes on."""

    def test_put_degrades_with_one_warning(self, make_store, sim_result,
                                           monkeypatch):
        store = make_store()
        break_writes(monkeypatch)
        stored = StoredResult.from_sim_result(sim_result)
        with pytest.warns(ResultStoreWarning, match="read-only"):
            store.put("ab" * 32, stored)
        assert store.read_only
        # Further writes are silently dropped, not re-warned.
        import warnings as warnings_mod
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            store.put("cd" * 32, stored)
            store.quarantine_add("ef" * 32, {"error": "x"})
            assert store.write_checkpoint("c", {}) is None

    def test_degraded_store_still_serves_reads(self, make_store,
                                               sim_result, monkeypatch):
        key = point_key(sim_result.config, cluster_a(2))
        store = make_store()
        store.put(key, StoredResult.from_sim_result(sim_result))
        break_writes(monkeypatch)
        with pytest.warns(ResultStoreWarning, match="read-only"):
            store.get("ab" * 32)  # miss-bump write fails -> degrade
        assert store.contains(key)
        assert store.get(key) is not None  # hit served, bump dropped

    @staticmethod
    def _tables(store):
        """Every row of every table, for an unchanged-store check."""
        db = store._db()
        return {table: db.execute(f"SELECT * FROM {table}").fetchall()
                for table in ("records", "tags", "counters", "quarantine",
                              "leases", "checkpoints")}

    @pytest.mark.parametrize("operation", [
        "put", "put_many", "tag", "tag_many", "quarantine_add",
        "quarantine_clear", "lease_update", "lease_release",
        "write_checkpoint", "gc", "verify_gc", "get",
    ])
    def test_first_failing_write_degrades_once(
            self, make_store, sim_result, monkeypatch, operation):
        """Each write entry point, failing first, warns "read-only"
        exactly once, flips the store and returns its default."""
        store = make_store()
        stored = StoredResult.from_sim_result(sim_result)
        good, stale, new = "aa" * 32, "bb" * 32, "cc" * 32
        store.put_many([(good, stored, None, None),
                        (stale, stored, None, None)])
        record = load_record(store, stale)
        record["schema"] = 999
        rewrite_record(store, stale, json.dumps(record))
        store.quarantine_add(good, {"error": "boom"})
        store.lease_update(good, {"worker": "w1"})
        location = store.location
        calls = {
            "put": (lambda: store.put(new, stored), location),
            "put_many": (lambda: store.put_many(
                [(new, stored, None, None)]), [location]),
            "tag": (lambda: store.tag(good, "camp"), True),
            "tag_many": (lambda: store.tag_many(
                [(good, "camp", None), (new, "camp", None)]), 1),
            "quarantine_add": (
                lambda: store.quarantine_add(new, {}), None),
            "quarantine_clear": (lambda: store.quarantine_clear(), 0),
            "lease_update": (lambda: store.lease_update(new, {}), None),
            "lease_release": (lambda: store.lease_release(), 0),
            "write_checkpoint": (
                lambda: store.write_checkpoint("camp", {}), None),
            "gc": (lambda: store.gc(), 0),
            "verify_gc": (lambda: store.verify(gc=True).swept, 0),
            "get": (lambda: store.get(good), stored),
        }
        call, default = calls[operation]
        before = self._tables(store)
        break_writes(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert call() == default
        assert [w.category for w in caught] == [ResultStoreWarning]
        assert "read-only" in str(caught[0].message)
        assert store.read_only
        assert self._tables(store) == before

    def test_suite_keeps_simulating_on_degraded_store(self, tmp_path,
                                                      root_kind,
                                                      monkeypatch):
        """ISSUE: warn, keep simulating, don't crash."""
        clear_result_cache()
        suite = MicroBenchmarkSuite(
            cluster=cluster_a(2),
            store=store_root(tmp_path, root_kind))
        break_writes(monkeypatch)
        with pytest.warns(ResultStoreWarning, match="read-only"):
            result = suite.run_config(tiny_config())
        assert result.execution_time > 0
        clear_result_cache()


class TestQuarantineLedger:
    def test_add_read_clear_round_trip(self, make_store):
        store = make_store()
        assert store.quarantine() == {}
        store.quarantine_add("aa" * 32, {"error": "boom", "attempts": 2})
        store.quarantine_add("bb" * 32, {"error": "bang", "attempts": 1})
        ledger = store.quarantine()
        assert set(ledger) == {"aa" * 32, "bb" * 32}
        assert ledger["aa" * 32]["error"] == "boom"
        assert store.quarantine_clear(["aa" * 32, "zz" * 32]) == 1
        assert set(store.quarantine()) == {"bb" * 32}
        assert store.quarantine_clear() == 1
        assert store.quarantine() == {}

    def test_quarantined_count_in_stats(self, make_store):
        store = make_store()
        store.quarantine_add("aa" * 32, {"error": "boom"})
        assert store.stats()["quarantined"] == 1

    def test_quarantine_location_is_reported(self, make_store):
        assert "quarantine" in make_store().quarantine_location


class TestUnreadableLedgerFile:
    """A garbage ``quarantine.json`` in an old directory store imports
    as an empty ledger, with a warning."""

    def test_unreadable_ledger_is_empty_with_warning(self, tmp_path):
        root = _old_directory_store(tmp_path, {
            "quarantine.json": "{ nope"})
        with pytest.warns(ResultStoreWarning, match="quarantine"):
            report = migrate_store(str(root), str(root))
        assert report.quarantined == 0
        assert ResultStore(str(root)).quarantine() == {}


class TestCheckpoints:
    def test_checkpoint_round_trip(self, make_store):
        store = make_store()
        path = store.write_checkpoint("fig2", {"total": 4,
                                               "completed": ["a"]})
        assert path is not None and path.exists()
        data = store.read_checkpoint("fig2")
        assert data["total"] == 4 and data["completed"] == ["a"]

    def test_missing_checkpoint_is_none(self, make_store):
        assert make_store().read_checkpoint("x") is None

    def test_corrupt_checkpoint_warns(self, make_store):
        store = make_store()
        corrupt_checkpoint(store, "fig2")
        with pytest.warns(ResultStoreWarning, match="checkpoint"):
            assert store.read_checkpoint("fig2") is None
