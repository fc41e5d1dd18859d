"""Tests for the mr-microbench CLI."""

import re

import pytest

import repro.core.suite as suite_mod
from repro.core.cli import build_parser, main


def test_defaults_parse():
    args = build_parser().parse_args([])
    assert args.benchmark == "MR-AVG"
    assert args.network == "1GigE"


def test_full_run(capsys):
    rc = main([
        "--benchmark", "MR-AVG", "--network", "ipoib-qdr",
        "--num-pairs", "20000", "--maps", "4", "--reduces", "2",
        "--slaves", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "JOB EXECUTION TIME" in out
    assert "IPoIB-QDR(32Gbps)" in out


def test_skew_benchmark(capsys):
    rc = main(["--benchmark", "MR-SKEW", "--num-pairs", "20000",
               "--maps", "4", "--reduces", "2", "--slaves", "2"])
    assert rc == 0
    assert "MR-SKEW" in capsys.readouterr().out


def test_yarn_framework(capsys):
    rc = main(["--framework", "yarn", "--num-pairs", "10000",
               "--maps", "4", "--reduces", "2", "--slaves", "2"])
    assert rc == 0
    assert "yarn" in capsys.readouterr().out


def test_cluster_b(capsys):
    rc = main(["--cluster", "b", "--num-pairs", "10000",
               "--maps", "4", "--reduces", "2", "--slaves", "2"])
    assert rc == 0
    assert "Stampede" in capsys.readouterr().out


def test_monitor_flag(capsys):
    rc = main(["--num-pairs", "100000", "--maps", "4", "--reduces", "2",
               "--slaves", "2", "--monitor", "1"])
    assert rc == 0
    assert "cpu_pct" in capsys.readouterr().out


def test_unknown_network_fails_cleanly(capsys):
    rc = main(["--network", "smoke-signals", "--num-pairs", "1000"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("size_args", [
    ["--shuffle-gb", "1e300"],
    ["--shuffle-gb", "inf"],
    ["--sweep", "1,1e300"],
], ids=["1e300", "inf", "sweep"])
def test_non_finite_shuffle_size_fails_cleanly(size_args, capsys):
    rc = main(size_args + ["--no-store", "--maps", "4", "--reduces", "2"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("size_args", [
    ["--shuffle-gb", "0"],
    ["--shuffle-gb", "-1"],
    ["--sweep", "0,4"],
], ids=["zero", "negative", "sweep"])
def test_non_positive_shuffle_size_fails_before_simulating(
        size_args, capsys, monkeypatch):
    def no_simulation(*_args, **_kwargs):
        raise AssertionError("a job was simulated")

    monkeypatch.setattr(suite_mod, "run_simulated_job", no_simulation)
    rc = main(size_args + ["--no-store", "--maps", "4", "--reduces", "2"])
    assert rc == 2
    assert "> 0" in capsys.readouterr().err


def test_skew_split_benchmark_runs_its_own_pattern(capsys):
    """The benchmark name picks the pattern, hyphens and all."""
    rc = main(["--benchmark", "MR-SKEW-SPLIT", "--num-pairs", "20000",
               "--maps", "4", "--reduces", "4", "--slaves", "2",
               "--no-store"])
    assert rc == 0
    assert re.search(r"Benchmark\s*: MR-SKEW-SPLIT\n",
                     capsys.readouterr().out)


def test_mutually_exclusive_size_options():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--shuffle-gb", "1", "--num-pairs", "10"])


def test_text_data_type(capsys):
    rc = main(["--data-type", "Text", "--num-pairs", "10000",
               "--maps", "4", "--reduces", "2", "--slaves", "2"])
    assert rc == 0
    assert "Text" in capsys.readouterr().out


class TestFaultFlags:
    ARGS = ["--num-pairs", "20000", "--maps", "4", "--reduces", "2",
            "--slaves", "2"]

    def test_kill_node_renders_resilience_section(self, capsys):
        rc = main(self.ARGS + ["--kill-node", "slave1@3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fault injection / resilience:" in out
        assert "Crash of slave1" in out

    def test_slow_node_flag(self, capsys):
        rc = main(self.ARGS + ["--slow-node", "slave1:2"])
        assert rc == 0
        assert "Fault injection / resilience:" in capsys.readouterr().out

    def test_task_failure_prob_flag(self, capsys):
        rc = main(self.ARGS + ["--task-failure-prob", "0.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "injected" in out

    def test_fault_plan_file(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"slow_nodes": [{"node": "slave0",'
                        ' "cpu_factor": 2.0}]}')
        rc = main(self.ARGS + ["--fault-plan", str(plan)])
        assert rc == 0
        assert "Fault injection / resilience:" in capsys.readouterr().out

    def test_no_fault_flags_no_section(self, capsys):
        rc = main(self.ARGS)
        assert rc == 0
        assert "Fault injection" not in capsys.readouterr().out

    def test_malformed_kill_node_fails_cleanly(self, capsys):
        rc = main(self.ARGS + ["--kill-node", "slave1"])
        assert rc == 2
        assert "NODE@TIME" in capsys.readouterr().err

    def test_malformed_slow_node_fails_cleanly(self, capsys):
        rc = main(self.ARGS + ["--slow-node", "slave0:fast"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_plan_file_fails_cleanly(self, capsys):
        rc = main(self.ARGS + ["--fault-plan", "/no/such/plan.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_node_fails_cleanly(self, capsys):
        rc = main(self.ARGS + ["--kill-node", "slave99@3"])
        assert rc == 2
        assert "unknown nodes" in capsys.readouterr().err
