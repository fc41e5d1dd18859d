"""Importing a directory store written by an older release.

``tests/data/legacy_store`` is an ``objects/<aa>/<key>.json`` directory
store written by the directory backend of the last release that had
one. It holds one record tagged by the ``legacy-import`` campaign below,
one record rewritten with schema 0, counters in two shard files plus a
pre-shard ``store.json``, one quarantine entry, one lease, one
checkpoint and the empty lock files that backend left behind.
``tests/data/legacy_store.expected.json`` holds what that release
reported for the store: its ``store export`` lines, ``store stats
--json`` (without the machine-specific root), counter totals, ledgers,
checkpoints and ``store verify`` output.

Today's store refuses to open such a directory and points at
``repro store migrate DIR DIR``; the import must reproduce every one of
those answers, and a warm re-run of the campaign must simulate nothing.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.cli import main, repro_main
from repro.core.suite import clear_result_cache
from repro.store import ResultStore, migrate_store

from tests.store.conftest import record_text

DATA = Path(__file__).parent.parent / "data"
LEGACY = DATA / "legacy_store"
EXPECTED = json.loads((DATA / "legacy_store.expected.json").read_text())

#: The campaign whose one point the fixture holds.
CAMPAIGN = {
    "name": "legacy-import",
    "shuffle_gbs": [0.02],
    "networks": ["1GigE"],
    "slaves": 2,
    "params": {"num_maps": 4, "num_reduces": 2,
               "key_size": 256, "value_size": 256},
}


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


@pytest.fixture
def old_store(tmp_path):
    """A private copy of the fixture store (imports write beside it)."""
    root = tmp_path / "old"
    shutil.copytree(LEGACY, root)
    return root


def _files(root):
    """Relative path -> bytes of every file under a directory."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _cli(capsys, *argv):
    """Run ``repro`` in-process; returns (exit code, stdout, stderr)."""
    rc = repro_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestOpenWithoutImport:
    def test_cli_exits_2_with_the_migrate_hint(self, old_store, capsys):
        rc, out, err = _cli(capsys, "store", "stats",
                            "--store", str(old_store))
        assert rc == 2 and out == ""
        assert err == (f"error: {old_store} is a directory store from an "
                       f"older release; import it with `repro store "
                       f"migrate {old_store} {old_store}`\n")
        assert _files(old_store) == _files(LEGACY)  # nothing created

    def test_library_refuses_plain_and_file_roots(self, old_store):
        for root in (str(old_store), f"file:{old_store}"):
            with pytest.raises(ValueError, match="repro store migrate"):
                ResultStore(root)

    def test_mr_microbench_exits_2_with_the_hint(self, old_store,
                                                 capsys):
        rc = main(["--shuffle-gb", "0.02", "--maps", "4", "--reduces",
                   "2", "--slaves", "2", "--store", str(old_store)])
        captured = capsys.readouterr()
        assert rc == 2 and "JOB EXECUTION TIME" not in captured.out
        assert "repro store migrate" in captured.err

    def test_a_campaign_refuses_instead_of_resimulating(
            self, old_store, tmp_path, capsys):
        spec = tmp_path / "legacy.json"
        spec.write_text(json.dumps(CAMPAIGN))
        rc, out, err = _cli(capsys, "campaign", "run", str(spec),
                            "--store", str(old_store), "--quiet")
        assert rc == 2 and "repro store migrate" in err
        assert "simulated" not in out


class TestImportInPlace:
    @pytest.fixture
    def imported(self, old_store, capsys):
        """The fixture imported with ``repro store migrate DIR DIR``."""
        rc, out, _err = _cli(capsys, "store", "migrate",
                             str(old_store), str(old_store))
        assert rc == 0
        assert "records:     2" in out
        assert "counters:    hits=5, misses=9, puts=5" in out
        assert "quarantined: 1" in out and "leases:      1" in out
        assert "checkpoints: 1" in out
        return old_store

    def test_export_lines_match_the_old_release(self, imported, capsys):
        rc, out, _err = _cli(capsys, "store", "export",
                             "--store", str(imported))
        assert rc == 0
        assert len(EXPECTED["export"]) == 1  # the stale record is skipped
        assert out.splitlines() == EXPECTED["export"]

    def test_stats_match_the_old_release(self, imported, capsys):
        rc, out, _err = _cli(capsys, "store", "stats", "--json",
                             "--store", str(imported))
        assert rc == 0
        stats = json.loads(out)
        assert stats.pop("root") == str(imported)
        assert stats.pop("backend") == "sqlite"
        expected = dict(EXPECTED["stats"])
        assert expected.pop("backend") == "filesystem"
        assert stats == expected

    def test_counters_ledgers_and_checkpoints_match(self, imported):
        store = ResultStore(str(imported))
        assert store.location == imported / "store.sqlite"
        assert store.counters() == EXPECTED["counters"]
        assert store.quarantine() == EXPECTED["quarantine"]
        assert store.leases() == EXPECTED["leases"]
        assert store.checkpoints() == EXPECTED["checkpoints"]

    def test_record_text_is_each_old_file_byte_for_byte(self, imported):
        store = ResultStore(str(imported))
        files = sorted(imported.glob("objects/*/*.json"))
        assert [path.stem for path in files] == list(store.keys())
        assert {EXPECTED["tagged_key"], EXPECTED["stale_key"]} == {
            path.stem for path in files}
        for path in files:
            assert record_text(store, path.stem).encode() == path.read_bytes()

    def test_verify_matches_then_gc_leaves_it_clean(self, imported,
                                                    capsys):
        rc, out, _err = _cli(capsys, "store", "verify",
                             "--store", str(imported))
        assert rc == EXPECTED["verify_exit"] == 1
        assert out.splitlines() == EXPECTED["verify"]
        assert "stale schema 0" in out  # the only problem
        rc, out, _err = _cli(capsys, "store", "verify", "--gc",
                             "--store", str(imported))
        assert rc == 0 and "1 swept" in out
        rc, out, _err = _cli(capsys, "store", "verify",
                             "--store", str(imported))
        assert rc == 0
        assert "verified 1 record(s): 1 ok, 0 bad  [OK]" in out

    def test_warm_rerun_simulates_nothing(self, imported, tmp_path,
                                          capsys):
        spec = tmp_path / "legacy.json"
        spec.write_text(json.dumps(CAMPAIGN))
        rc, out, _err = _cli(capsys, "campaign", "run", str(spec),
                             "--store", str(imported), "--quiet")
        assert rc == 0
        assert "1 points, 0 simulated, 1 from the store, 0 failed" in out
        assert ResultStore(str(imported)).stats()["puts"] == 5

    def test_old_files_are_left_as_they_were(self, imported):
        files = _files(imported)
        assert {name for name in files
                if name.startswith("store.sqlite")} >= {"store.sqlite"}
        old = {name: data for name, data in files.items()
               if not name.startswith("store.sqlite")}
        assert old == _files(LEGACY)

    def test_a_second_import_is_refused(self, imported, capsys):
        rc, _out, err = _cli(capsys, "store", "migrate",
                             str(imported), str(imported))
        assert rc == 2 and "same store" in err
        assert ResultStore(str(imported)).stats()["puts"] == 5


def test_import_into_another_store(old_store, tmp_path):
    report = migrate_store(f"file:{old_store}",
                           f"sqlite:{tmp_path / 'new.sqlite'}")
    assert report.source == f"directory store at {old_store}"
    assert report.records == 2
    store = ResultStore(f"sqlite:{tmp_path / 'new.sqlite'}")
    assert list(store.export()) == EXPECTED["export"]
    assert store.counters() == EXPECTED["counters"]
    assert _files(old_store) == _files(LEGACY)  # read-only source
