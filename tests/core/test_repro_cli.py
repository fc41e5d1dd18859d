"""The ``repro`` command (store / campaign / book) and the
``mr-microbench --store`` surface — including the end-to-end warm-start
acceptance: a 2×2 campaign run twice in *separate processes* executes
zero simulations the second time (``puts`` unmoved in
``repro store stats``) with bit-identical results.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.cli import build_repro_parser, main, repro_main
from repro.core.suite import clear_result_cache
from repro.store import ResultStore, ResultStoreWarning

from tests.store.conftest import corrupt_metadata, rewrite_record
from tests.store.conftest import store_root as cli_store_root

TINY_SPEC = {
    "name": "tiny",
    "figure": "Fig. T",
    "title": "Tiny acceptance sweep",
    "shuffle_gbs": [0.02, 0.04],
    "networks": ["1GigE", "ipoib-qdr"],
    "slaves": 2,
    "params": {"num_maps": 4, "num_reduces": 2,
               "key_size": 256, "value_size": 256},
}

MB_ARGS = ["--shuffle-gb", "0.02", "--maps", "4", "--reduces", "2",
           "--slaves", "2", "--key-size", "256", "--value-size", "256"]


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SPEC))
    return path


def test_subcommands_parse():
    args = build_repro_parser().parse_args(["store", "stats"])
    assert args.command == "store"
    args = build_repro_parser().parse_args(
        ["campaign", "run", "spec.json", "-j", "2"])
    assert args.jobs == 2
    args = build_repro_parser().parse_args(["book", "out"])
    assert args.out_dir == "out"


class TestReproCli:
    def test_campaign_run_then_stats(self, tmp_path, spec_path, capsys):
        store = str(tmp_path / "store")
        rc = repro_main(["campaign", "run", str(spec_path),
                         "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 simulated, 0 from the store" in out

        rc = repro_main(["store", "stats", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "puts" in out and "records" in out

    def test_store_ls_gc_export(self, tmp_path, spec_path, capsys):
        store = str(tmp_path / "store")
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        capsys.readouterr()

        assert repro_main(["store", "ls", "--store", store]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert repro_main(["store", "ls", "-l", "--store", store]) == 0
        assert "MR-AVG" in capsys.readouterr().out

        jsonl = tmp_path / "dump.jsonl"
        assert repro_main(["store", "export", "--store", store,
                           "-o", str(jsonl)]) == 0
        capsys.readouterr()
        assert len(jsonl.read_text().splitlines()) == 4

        assert repro_main(["store", "gc", "--store", store]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert repro_main(["store", "gc", "--all", "--store", store]) == 0
        assert "removed 4" in capsys.readouterr().out

    def test_book_from_store(self, tmp_path, spec_path, capsys):
        store = str(tmp_path / "store")
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        rc = repro_main(["book", str(tmp_path / "book"), "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "book" / "index.md").exists()
        assert (tmp_path / "book" / "tiny.md").exists()
        assert "index.md" in out

    def test_book_on_empty_store_fails_cleanly(self, tmp_path, capsys):
        rc = repro_main(["book", str(tmp_path / "book"),
                         "--store", str(tmp_path / "empty")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        rc = repro_main(["campaign", "run", str(bad),
                         "--store", str(tmp_path / "store")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestMrMicrobenchStore:
    def test_warm_hit_renders_stored_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(MB_ARGS + ["--store", store]) == 0
        cold = capsys.readouterr().out
        assert "served from the result store" not in cold

        clear_result_cache()
        assert main(MB_ARGS + ["--store", store]) == 0
        warm = capsys.readouterr().out
        assert "served from the result store" in warm
        assert "JOB EXECUTION TIME" in warm
        # Same job time, to the displayed precision.
        cold_line = [ln for ln in cold.splitlines()
                     if "JOB EXECUTION TIME" in ln]
        warm_line = [ln for ln in warm.splitlines()
                     if "JOB EXECUTION TIME" in ln]
        assert cold_line == warm_line

    def test_no_store_forces_live_run(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(MB_ARGS + ["--store", store])
        clear_result_cache()
        assert main(MB_ARGS + ["--store", store, "--no-store"]) == 0
        assert "served from the result store" not in capsys.readouterr().out

    def test_timeline_bypasses_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(MB_ARGS + ["--store", store])
        clear_result_cache()
        assert main(MB_ARGS + ["--store", store, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "served from the result store" not in out
        assert "Task timeline:" in out


class TestWarmStartAcceptance:
    def test_second_process_executes_zero_simulations(self, tmp_path,
                                                      spec_path):
        """ISSUE acceptance: 2 sizes × 2 networks, two separate
        processes; the second run is served entirely from the disk
        store (puts unmoved) and is bit-identical."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        store = str(tmp_path / "store")
        script = (
            "import sys\n"
            "from repro.campaign import load_campaign, run_campaign\n"
            "from repro.store import ResultStore\n"
            "spec, store = sys.argv[1], sys.argv[2]\n"
            "outcome = run_campaign(load_campaign(spec), store=store)\n"
            "for p in outcome.points:\n"
            "    print(p.key, p.result.execution_time.hex())\n"
            "print('executed', outcome.executed)\n"
            "print('puts', ResultStore(store).stats()['puts'])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")]))
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(spec_path), store],
                capture_output=True, text=True, env=env, check=True,
            )
            runs.append(proc.stdout.splitlines())
        cold, warm = runs
        assert cold[-2] == "executed 4"
        assert warm[-2] == "executed 0"
        # puts unmoved across processes: zero simulations on run 2.
        assert cold[-1] == "puts 4"
        assert warm[-1] == "puts 4"
        # Bit-identical results (hex-exact), same keys.
        assert cold[:4] == warm[:4]

    def test_stats_visible_through_the_cli(self, tmp_path, spec_path,
                                           capsys):
        store = str(tmp_path / "store")
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        clear_result_cache()
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        out = capsys.readouterr().out
        assert "0 simulated, 4 from the store" in out
        repro_main(["store", "stats", "--store", store])
        stats_out = capsys.readouterr().out
        assert any(line.split(":")[-1].strip() == "4"
                   for line in stats_out.splitlines()
                   if line.startswith("puts"))


class TestHardenedCampaignCli:
    """ISSUE 5 surface: exit codes, --keep-going, resume, new flags."""

    def test_new_flags_parse(self):
        parser = build_repro_parser()
        args = parser.parse_args(
            ["campaign", "run", "spec.json", "--retries", "2",
             "--timeout", "5", "--backoff", "0.5", "--keep-going"])
        assert (args.retries, args.timeout, args.backoff) == (2, 5.0, 0.5)
        assert args.keep_going and not args.fail_fast
        args = parser.parse_args(
            ["campaign", "resume", "spec.json", "--fail-fast"])
        assert args.campaign_command == "resume" and args.fail_fast

    def test_fail_fast_and_keep_going_exclude(self, capsys):
        with pytest.raises(SystemExit):
            build_repro_parser().parse_args(
                ["campaign", "run", "s.json", "--fail-fast",
                 "--keep-going"])
        capsys.readouterr()

    def test_invalid_policy_is_a_usage_error(self, spec_path, tmp_path,
                                             capsys):
        rc = repro_main(["campaign", "run", str(spec_path),
                         "--store", str(tmp_path / "s"), "--retries", "-1"])
        assert rc == 2
        assert "retries" in capsys.readouterr().err

    def test_quarantined_point_exits_nonzero(self, spec_path, tmp_path,
                                             monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        monkeypatch.setenv("REPRO_CHAOS_ATTEMPTS", "99")
        store = str(tmp_path / "store")
        rc = repro_main(["campaign", "run", str(spec_path),
                         "--store", store, "--jobs", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "3 simulated, 0 from the store, 1 failed" in captured.out
        assert "quarantined" in captured.err
        assert "campaign resume" in captured.err

    def test_keep_going_exits_zero_on_quarantine(self, spec_path, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        monkeypatch.setenv("REPRO_CHAOS_ATTEMPTS", "99")
        rc = repro_main(["campaign", "run", str(spec_path),
                         "--store", str(tmp_path / "store"),
                         "--keep-going", "--jobs", "2"])
        capsys.readouterr()
        assert rc == 0

    def test_resume_reruns_only_the_gap(self, spec_path, tmp_path,
                                        monkeypatch, capsys):
        store = str(tmp_path / "store")
        monkeypatch.setenv("REPRO_CHAOS_CRASH", "1")
        monkeypatch.setenv("REPRO_CHAOS_ATTEMPTS", "99")
        assert repro_main(["campaign", "run", str(spec_path),
                           "--store", store, "--quiet", "--jobs", "2"]) == 1
        capsys.readouterr()
        monkeypatch.delenv("REPRO_CHAOS_CRASH")
        monkeypatch.delenv("REPRO_CHAOS_ATTEMPTS")
        clear_result_cache()
        rc = repro_main(["campaign", "resume", str(spec_path),
                         "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cleared 1 quarantined point(s)" in out
        assert "1 simulated, 3 from the store, 0 failed" in out
        assert ResultStore(store).quarantine() == {}

    def test_resume_on_complete_campaign_is_all_hits(self, spec_path,
                                                     tmp_path, capsys):
        store = str(tmp_path / "store")
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        clear_result_cache()
        rc = repro_main(["campaign", "resume", str(spec_path),
                         "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 simulated, 4 from the store" in out


class TestStoreVerifyCli:
    def test_clean_store_verifies_ok(self, spec_path, tmp_path, capsys):
        store = str(tmp_path / "store")
        repro_main(["campaign", "run", str(spec_path), "--store", store,
                    "--quiet"])
        capsys.readouterr()
        rc = repro_main(["store", "verify", "--store", store])
        out = capsys.readouterr().out
        assert rc == 0
        assert "4 ok, 0 bad" in out and "[OK]" in out

    def test_corrupt_record_fails_verify(self, spec_path, tmp_path,
                                         capsys):
        store_root = tmp_path / "store"
        repro_main(["campaign", "run", str(spec_path),
                    "--store", str(store_root), "--quiet"])
        capsys.readouterr()
        store = ResultStore(str(store_root))
        rewrite_record(store, next(store.keys()), "{ torn")
        rc = repro_main(["store", "verify", "--store", str(store_root)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PROBLEMS FOUND" in out and "unparsable" in out

    def test_verify_gc_sweeps_and_exits_zero(self, spec_path, tmp_path,
                                             capsys):
        store_root = tmp_path / "store"
        repro_main(["campaign", "run", str(spec_path),
                    "--store", str(store_root), "--quiet"])
        capsys.readouterr()
        store = ResultStore(str(store_root))
        rewrite_record(store, next(store.keys()), "{ torn")
        rc = repro_main(["store", "verify", "--gc",
                         "--store", str(store_root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 swept" in out
        assert repro_main(["store", "verify",
                           "--store", str(store_root)]) == 0


    def test_damaged_database_says_how_to_recover(self, spec_path,
                                                  tmp_path, capsys):
        store_root = tmp_path / "store"
        repro_main(["campaign", "run", str(spec_path),
                    "--store", str(store_root), "--quiet"])
        corrupt_metadata(ResultStore(store_root))
        capsys.readouterr()
        with pytest.warns(ResultStoreWarning, match="unreadable"):
            rc = repro_main(["store", "verify", "--store", str(store_root)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "damaged" in err and "reads warn and miss" in err
        assert "read-only" in err and "repro store migrate" in err
        assert "reinitialize" not in err
        # --gc sweeps no record out of a damaged database: still exit 1.
        with pytest.warns(ResultStoreWarning, match="unreadable"):
            assert repro_main(["store", "verify", "--gc",
                               "--store", str(store_root)]) == 1


class TestStoreCliExtensions:
    """`stats --json`, `ls --campaign`, and `store migrate` — both root
    spellings, through the real CLI."""

    def _run_campaign(self, spec_path, store):
        assert repro_main(["campaign", "run", str(spec_path),
                           "--store", store, "--quiet"]) == 0

    def test_stats_json_is_machine_readable(self, spec_path, tmp_path,
                                            capsys, root_kind):
        store = cli_store_root(tmp_path, root_kind)
        self._run_campaign(spec_path, store)
        capsys.readouterr()
        assert repro_main(["store", "stats", "--json",
                           "--store", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 4
        assert stats["puts"] == 4
        assert stats["backend"] == "sqlite"
        assert stats["hit_rate"] == 0.0  # 4 misses, 0 hits

    def test_stats_json_null_hit_rate_without_lookups(self, tmp_path,
                                                      capsys,
                                                      root_kind):
        store = cli_store_root(tmp_path, root_kind)
        ResultStore(store).quarantine_add("aa" * 32, {"error": "x"})
        capsys.readouterr()
        assert repro_main(["store", "stats", "--json",
                           "--store", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["hit_rate"] is None
        assert stats["quarantined"] == 1

    def test_ls_campaign_filters(self, spec_path, tmp_path, capsys,
                                 root_kind):
        store = cli_store_root(tmp_path, root_kind)
        self._run_campaign(spec_path, store)
        capsys.readouterr()
        assert repro_main(["store", "ls", "--campaign", "tiny",
                           "--store", store]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert repro_main(["store", "ls", "--campaign", "absent",
                           "--store", store]) == 0
        assert capsys.readouterr().out.splitlines() == []
        assert repro_main(["store", "ls", "-l", "--campaign", "tiny",
                           "--store", store]) == 0
        long_out = capsys.readouterr().out
        assert "MR-AVG" in long_out and "tiny" in long_out

    def test_migrate_copies_the_corpus(self, spec_path, tmp_path, capsys,
                                       root_kind):
        other = "sqlite" if root_kind == "filesystem" else "filesystem"
        src = cli_store_root(tmp_path, root_kind, "src")
        dst = cli_store_root(tmp_path, other, "dst")
        self._run_campaign(spec_path, src)
        capsys.readouterr()
        assert repro_main(["store", "migrate", src, dst]) == 0
        out = capsys.readouterr().out
        assert "migrated" in out and "records:     4" in out
        stats = ResultStore(dst).stats()
        assert stats["records"] == 4
        assert stats["puts"] == 4

    def test_migrate_onto_itself_is_an_error(self, tmp_path, capsys,
                                             root_kind):
        store = cli_store_root(tmp_path, root_kind)
        ResultStore(store).quarantine_add("aa" * 32, {"error": "x"})
        capsys.readouterr()
        assert repro_main(["store", "migrate", store, store]) == 2
        assert "same store" in capsys.readouterr().err

    def test_migrate_onto_another_spelling_of_itself_is_an_error(
            self, tmp_path, capsys, monkeypatch):
        """Relative vs absolute, and a symlinked directory: exit 2, and
        the counters are not added to themselves."""
        real = tmp_path / "store"
        ResultStore(real).get_batch(["00" * 32] * 3)  # three misses
        (tmp_path / "link").symlink_to(real, target_is_directory=True)
        monkeypatch.chdir(tmp_path)
        for source, destination in (("store", str(real)),
                                    (str(real), "link")):
            assert repro_main(["store", "migrate", source,
                               destination]) == 2
            assert "same store" in capsys.readouterr().err
        assert ResultStore(real).stats()["misses"] == 3
