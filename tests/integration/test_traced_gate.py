"""The CI gate on traced repository-benchmark runs.

``benchmarks/traced_gate.py WORKLOAD LOG`` reads the JSON summary on the
last line of a ``perfbench/run.py --trace 1`` log. These tests feed it
synthetic summaries: the pinned counts pass, and each kind of miss
fails with a line naming the metric.
"""

import json
import pathlib
import subprocess
import sys

import pytest

GATE = (pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "traced_gate.py")

FIGURES = {"hadoop.jobs": 102, "core.matrices": 34, "sim.events": 451117,
           "net.flows": 26880, "net.solves": 44501, "core.matrix_s": 2.5}
TRIALS = {"store.keys": 2000, "store.reads": 2000, "store.writes": 1000,
          "hadoop.jobs": 25}
SERVICE = {"service.warm_hits": 900, "service.cold_misses": 90,
           "store.reads": 990, "service.query_p50_ms": 0.4,
           "service.http_p50_ms": 1.1}
POOL = {"pool.dispatched": 12, "store.writes": 12, "campaign.simulated": 12,
        "pool.workers_lost": 0, "pool.reassignments": 0,
        "pool.leases_expired": 0, "pool.join_s": 0.03, "pool.busy_frac": 0.8,
        "wire.frames": 40, "wire.bytes": 60000}


def gate(tmp_path, workload, values, correct=True):
    """Run the gate on a log ending in one summary; (exit code, stdout)."""
    run = {"correct": correct, "attempted": 1, "failed": 0,
           "metrics": {name: {"value": value, "unit": "count"}
                       for name, value in values.items()}}
    log = tmp_path / f"{workload}.log"
    log.write_text("a progress line\n" + json.dumps(run) + "\n")
    done = subprocess.run([sys.executable, str(GATE), workload, str(log)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


@pytest.mark.parametrize("workload, values", [
    ("figures-cold", FIGURES), ("trials-1000", TRIALS),
    ("service-mix", SERVICE), ("pool-fig3a", POOL),
])
def test_expected_counts_pass(tmp_path, workload, values):
    assert gate(tmp_path, workload, values) == (0, "")


@pytest.mark.parametrize("name, value, message", [
    ("net.solves", 44502, "net.solves is 44502, not 44501"),
    ("sim.events", 451116, "sim.events is 451116, not 451117"),
    ("net.flows", 0, "net.flows is 0, not 26880"),
    ("core.matrix_s", 0.0, "core.matrix_s is 0.0"),
])
def test_figures_count_off_by_any_amount_fails(tmp_path, name, value,
                                               message):
    code, out = gate(tmp_path, "figures-cold", dict(FIGURES, **{name: value}))
    assert code == 1
    assert out == f"traced figures-cold pass: {message}\n"


@pytest.mark.parametrize("name, value, message", [
    ("pool.dispatched", 13, "pool.dispatched is 13, not 12"),
    ("pool.reassignments", 1, "pool.reassignments is 1, not 0"),
    ("pool.join_s", 0.0, "pool.join_s is 0.0"),
    ("wire.frames", 0, "wire.frames is 0"),
])
def test_pool_pass_with_a_miss_fails(tmp_path, name, value, message):
    code, out = gate(tmp_path, "pool-fig3a", dict(POOL, **{name: value}))
    assert code == 1
    assert out == f"traced pool-fig3a pass: {message}\n"


def test_missing_metric_and_failed_checks_fail(tmp_path):
    values = dict(SERVICE)
    del values["service.http_p50_ms"]
    code, out = gate(tmp_path, "service-mix", values, correct=False)
    assert code == 1
    assert out.splitlines() == [
        "traced service-mix pass: output checks failed",
        "traced service-mix pass: service.http_p50_ms is None",
    ]


def test_unknown_workload_is_a_usage_error(tmp_path):
    code, _ = gate(tmp_path, "pool-fig3b", {})
    assert code == 2
