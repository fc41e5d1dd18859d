"""Golden warm starts and lossless migration, over both root spellings.

All 40 golden points warm-start hex-exact through a directory root and
through a ``sqlite:`` root, and ``repro store migrate`` moves a corpus
between stores key-for-key with byte-identical record text and exact
counter totals — including a full round trip, and an import of an old
directory store whose record files it must reproduce byte for byte.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.hadoop.cluster import cluster_a
from repro.hadoop.job import JobConf
from repro.store import ResultStore, StoredResult, migrate_store

from tests.store.conftest import record_text, store_root

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_times.json"

#: A directory store written by an older release (see test_import.py).
LEGACY_STORE = Path(__file__).parent.parent / "data" / "legacy_store"

with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)

POINTS = GOLDEN["points"]

assert len(POINTS) == 40, "golden file must pin exactly 40 points"


def golden_config(point):
    """The BenchmarkConfig of one golden point."""
    return BenchmarkConfig.from_shuffle_size(
        point["shuffle_gb"] * 1e9,
        pattern=point["pattern"],
        network=point["network"],
        num_maps=GOLDEN["num_maps"],
        num_reduces=GOLDEN["num_reduces"],
        key_size=GOLDEN["key_size"],
        value_size=GOLDEN["value_size"],
    )


def _suites(root):
    """One suite per framework version, all sharing one store root."""
    versions = sorted({p["version"] for p in POINTS})
    return {
        version: MicroBenchmarkSuite(cluster=cluster_a(2),
                                     jobconf=JobConf(version=version),
                                     store=root)
        for version in versions
    }


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


class TestGoldenWarmStarts:
    """40/40 golden points hex-exact per root spelling."""

    def test_all_40_points_warm_start_hex_exact(self, tmp_path,
                                                root_kind):
        root = store_root(tmp_path, root_kind)

        # Cold pass: simulate and record every golden point.
        cold = _suites(root)
        for point in POINTS:
            result = cold[point["version"]].run_config(golden_config(point))
            assert (result.execution_time.hex()
                    == point["execution_time_hex"])
        puts_after_cold = ResultStore(root).stats()["puts"]
        assert puts_after_cold == 40

        # Warm pass, fresh process (memo cleared): every point must be
        # served from the store, hex-exact, with zero new simulations.
        clear_result_cache()
        warm = _suites(root)
        for point in POINTS:
            stored = warm[point["version"]].run_config(golden_config(point))
            assert isinstance(stored, StoredResult)
            assert stored.cached is True
            assert (stored.execution_time.hex()
                    == point["execution_time_hex"])
        assert ResultStore(root).stats()["puts"] == puts_after_cold


def _populate(root, n=4):
    """A store with n golden records, tags, quarantine, checkpoint."""
    suites = _suites(root)
    keys = []
    for point in POINTS[:n]:
        suite = suites[point["version"]]
        config = golden_config(point)
        suite.run_config(config)
        keys.append(suite.store_key(config))
    clear_result_cache()
    store = ResultStore(root)
    store.tag(keys[0], "mig-camp", {"trial": 0})
    store.tag(keys[1], "mig-camp", {"trial": 1})
    store.quarantine_add("ab" * 32, {"error": "boom", "attempts": 3})
    store.write_checkpoint("mig-camp", {"total": n,
                                        "completed": keys[:2]})
    return store, keys


class TestMigration:
    """`repro store migrate` is lossless between stores, both ways."""

    def test_round_trip_is_byte_identical(self, tmp_path, root_kind):
        other = "sqlite" if root_kind == "filesystem" else "filesystem"
        root_a = store_root(tmp_path, root_kind, "a")
        root_b = store_root(tmp_path, other, "b")
        root_c = store_root(tmp_path, root_kind, "c")
        source, keys = _populate(root_a)

        first = migrate_store(root_a, root_b)
        second = migrate_store(root_b, root_c)
        assert first.records == len(keys) == second.records
        assert first.quarantined == 1 == second.quarantined
        assert first.checkpoints == 1 == second.checkpoints

        stores = [source, ResultStore(root_b), ResultStore(root_c)]
        expected_keys = sorted(keys)
        for store in stores:
            assert list(store.keys()) == expected_keys
        # Key-for-key byte-identical record text across every hop.
        for key in keys:
            texts = {record_text(store, key) for store in stores}
            assert len(texts) == 1
        # Exact counter totals, quarantine and checkpoints preserved.
        reference = stores[0].counters()
        assert any(reference.values())  # the comparison is non-vacuous
        for store in stores[1:]:
            assert store.counters() == reference
            assert store.quarantine() == stores[0].quarantine()
            assert (store.checkpoints()
                    == stores[0].checkpoints())

    def test_round_trip_reproduces_record_files(self, tmp_path):
        """old directory -> sqlite -> sqlite keeps every record file's
        bytes as the stored record text."""
        old = tmp_path / "old"
        shutil.copytree(LEGACY_STORE, old)
        root_b = store_root(tmp_path, "sqlite", "b")
        migrate_store(str(old), str(old))
        migrate_store(str(old), root_b)
        copy = ResultStore(root_b)
        files = sorted(old.glob("objects/*/*.json"))
        assert len(files) == 2
        assert list(copy.keys()) == [path.stem for path in files]
        for path in files:
            assert (record_text(copy, path.stem).encode()
                    == path.read_bytes())

    def test_warm_start_through_migrated_copy(self, tmp_path,
                                              root_kind):
        other = "sqlite" if root_kind == "filesystem" else "filesystem"
        root_a = store_root(tmp_path, root_kind, "a")
        root_b = store_root(tmp_path, other, "b")
        _populate(root_a, n=2)
        migrate_store(root_a, root_b)

        clear_result_cache()
        warm = _suites(root_b)
        puts_before = ResultStore(root_b).stats()["puts"]
        for point in POINTS[:2]:
            stored = warm[point["version"]].run_config(golden_config(point))
            assert isinstance(stored, StoredResult)
            assert (stored.execution_time.hex()
                    == point["execution_time_hex"])
        assert ResultStore(root_b).stats()["puts"] == puts_before

    def test_migrating_onto_itself_is_refused(self, tmp_path,
                                              root_kind):
        root = store_root(tmp_path, root_kind)
        ResultStore(root).quarantine_add("aa" * 32, {"error": "x"})
        with pytest.raises(ValueError, match="same store"):
            migrate_store(root, root)

    @pytest.mark.parametrize("spelling", ["relative", "sqlite", "symlink"])
    def test_another_spelling_of_the_same_store_is_refused(
            self, tmp_path, monkeypatch, spelling):
        """A relative root and its absolute form, a ``sqlite:`` path and
        its absolute form, or a symlinked directory all name one
        database: refused, and its counters are not added to
        themselves."""
        real = tmp_path / "real"
        ResultStore(real).get_batch(["00" * 32] * 3)  # three misses
        (tmp_path / "link").symlink_to(real, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        source, destination = {
            "relative": ("real", str(real)),
            "sqlite": ("sqlite:real/store.sqlite",
                       f"sqlite:{real / 'store.sqlite'}"),
            "symlink": (str(real), "link"),
        }[spelling]
        with pytest.raises(ValueError, match="same store"):
            migrate_store(source, destination)
        assert ResultStore(real).stats()["misses"] == 3

    def test_path_roots_are_accepted(self, tmp_path):
        """``pathlib.Path`` roots work on both sides, for a database and
        for an old directory store."""
        ResultStore(tmp_path / "a").quarantine_add("aa" * 32, {"error": "x"})
        report = migrate_store(tmp_path / "a", tmp_path / "b")
        assert report.quarantined == 1
        assert set(ResultStore(tmp_path / "b").quarantine()) == {"aa" * 32}
        old = tmp_path / "old"
        shutil.copytree(LEGACY_STORE, old)
        assert migrate_store(old, old).records == 2
        assert len(list(ResultStore(old).keys())) == 2
