"""Fault-injection determinism at the suite level.

Two guarantees the tentpole promises:

* **No-op discipline** — passing an *empty* ``FaultPlan`` must be
  bit-identical to passing no plan at all, including on the pinned
  golden points (the injector is never even constructed).
* **Seeded reproducibility** — a non-trivial plan produces identical
  times and resilience metrics run-over-run, and identically on a
  serial (``jobs=1``) vs a process-pool (``jobs=4``) sweep, which
  also proves the plan survives pickling to worker processes.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.faults import FaultPlan, NodeCrash, SlowNode
from repro.hadoop.cluster import cluster_a
from repro.hadoop.job import JobConf
from repro.hadoop.simulation import run_simulated_job

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_times.json"

with GOLDEN_PATH.open() as _handle:
    GOLDEN = json.load(_handle)


def _golden_config(point):
    return BenchmarkConfig.from_shuffle_size(
        point["shuffle_gb"] * 1e9,
        pattern=point["pattern"],
        network=point["network"],
        num_maps=GOLDEN["num_maps"],
        num_reduces=GOLDEN["num_reduces"],
        key_size=GOLDEN["key_size"],
        value_size=GOLDEN["value_size"],
    )


@pytest.mark.parametrize(
    "point",
    # One point per framework x pattern at the smallest size keeps the
    # double-run pass fast; the full 40-point sweep is covered (without
    # a plan) by test_golden_times.py.
    [p for p in GOLDEN["points"]
     if p["shuffle_gb"] == 1.0 and p["network"] in ("1GigE", "RDMA-FDR")],
    ids=lambda p: f"{p['version']}-{p['network']}-{p['pattern']}",
)
def test_empty_plan_matches_golden_hex(point):
    config = _golden_config(point)
    result = run_simulated_job(
        config,
        cluster=cluster_a(2),
        jobconf=JobConf(version=point["version"]),
        fault_plan=FaultPlan(),
    )
    assert result.execution_time.hex() == point["execution_time_hex"]
    assert result.resilience is None


PLAN = FaultPlan(
    task_failure_probability=0.1,
    node_crashes=(NodeCrash("slave1", at_time=5.0),),
    slow_nodes=(SlowNode("slave0", cpu_factor=1.5),),
)


def _sweep(jobs):
    clear_result_cache()
    suite = MicroBenchmarkSuite(cluster=cluster_a(2),
                                jobconf=JobConf(max_task_attempts=8),
                                fault_plan=PLAN)
    sweep = suite.sweep("MR-AVG", [0.25, 0.5], ["1GigE", "ipoib-qdr"],
                        jobs=jobs, num_maps=8, num_reduces=4)
    clear_result_cache()
    return sweep


def test_seeded_plan_identical_serial_vs_pool():
    serial = _sweep(jobs=1)
    pooled = _sweep(jobs=4)
    assert len(serial.rows) == len(pooled.rows) == 4
    for a, b in zip(serial.rows, pooled.rows):
        assert a.execution_time.hex() == b.execution_time.hex()
        assert (a.result.resilience.summary()
                == b.result.resilience.summary())
        assert a.result.resilience is not None


def test_seeded_plan_identical_run_over_run():
    a, b = _sweep(jobs=1), _sweep(jobs=1)
    for ra, rb in zip(a.rows, b.rows):
        assert ra.execution_time.hex() == rb.execution_time.hex()


def test_plan_participates_in_memo_cache_key():
    """Same config with different plans must not collide in the memo
    cache: a faulty run may never be served from a healthy run's
    entry (or vice versa)."""
    clear_result_cache()
    suite = MicroBenchmarkSuite(cluster=cluster_a(2))
    config = BenchmarkConfig(num_pairs=100_000, num_maps=8, num_reduces=4,
                             network="ipoib-qdr")
    plan = FaultPlan(slow_nodes=(SlowNode("slave1", cpu_factor=4.0),))
    faulty_suite = MicroBenchmarkSuite(cluster=cluster_a(2), fault_plan=plan)
    healthy = suite.run_config(config)
    slowed = faulty_suite.run_config(config)
    healthy_again = suite.run_config(config)
    clear_result_cache()
    assert slowed.execution_time > healthy.execution_time
    assert healthy_again.execution_time.hex() == healthy.execution_time.hex()
    assert healthy_again.resilience is None
    assert slowed.resilience is not None
