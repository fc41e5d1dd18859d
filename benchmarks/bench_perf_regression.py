"""Wall-clock performance regression harness for the simulation substrate.

Unlike the ``bench_fig*`` modules (which regenerate the paper's figures
and assert their *shape*), this module guards the *speed* of the
simulator itself: the grouped max-min solver and the end-to-end wall
clock of the canonical Fig. 3 job. Measured values are recorded in
``benchmarks/BENCH_fabric.json``.

Workflow:

* ``PERF_BASELINE=1 pytest benchmarks/bench_perf_regression.py`` —
  re-measure and rewrite the committed baseline (do this on the machine
  class the baseline should represent, after a deliberate perf change).
* ``PERF_SMOKE=1 pytest benchmarks/bench_perf_regression.py`` — assert
  no measurement regressed to more than ``PERF_SMOKE_FACTOR`` (default
  2.0) times its committed baseline. CI runs this.
* Neither variable set — just measure and print (no assertion), so the
  benches stay safe on arbitrarily slow machines.

The canonical job also pins its *simulated* time exactly: wall-clock
optimizations must never change simulation results.
"""

import json
import os
import pathlib
import time

from _harness import (
    SMOKE_FACTOR,
    YARN_PARAMS,
    check_or_record,
    one_shot,
    record,
    suite_cluster_a,
)

from repro.core.config import BenchmarkConfig
from repro.hadoop.cluster import cluster_a
from repro.hadoop.simulation import run_simulated_job
from repro.net.solver import compute_max_min, solve_max_min_grouped
from repro.sim.trace import Tracer

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_fabric.json"

#: The trace bus promises zero overhead when disabled: emit sites are a
#: single attribute check. This is the allowed regression of the
#: tracing-disabled wall clock vs its committed baseline (tightest when
#: ``PERF_SMOKE_FACTOR`` <= 1.02, i.e. on the baseline machine class).
TRACE_OVERHEAD_LIMIT = 1.02


def _load_baselines() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text())
    return {}


def _check_or_record(name: str, measured: dict) -> None:
    """Record ``measured`` under ``name`` or compare against baseline
    (see :func:`_harness.check_or_record`; smoke mode skips with a
    clear message when the baseline entry is missing)."""
    check_or_record(name, measured, BASELINE_PATH)


class _SyntheticFlow:
    __slots__ = ("links", "class_id")

    def __init__(self, links, class_id):
        self.links = links
        self.class_id = class_id


def _all_to_all_flows(hosts=16, per_pair=2, racks=2):
    """~512 concurrent shuffle flows over a racked 16-host fabric, with
    the class and link tables a fabric would have interned for them."""
    flows = []
    caps_by_link = {}
    class_links = []
    caps = []
    link_ids = {}
    for s in range(hosts):
        for d in range(hosts):
            if s == d:
                links = (("loop", s),)
            else:
                links = (("out", s), ("in", d))
                if s % racks != d % racks:
                    links += (("rack-up", s % racks),
                              ("rack-down", d % racks))
            for link in links:
                if link not in link_ids:
                    kind = link[0]
                    caps_by_link[link] = (8000.0 if kind == "loop"
                                          else 1500.0 if kind.startswith("rack")
                                          else 117.0)
                    link_ids[link] = len(caps)
                    caps.append(caps_by_link[link])
            class_id = len(class_links)
            class_links.append(tuple(link_ids[link] for link in links))
            for _ in range(per_pair):
                flows.append(_SyntheticFlow(links, class_id))
    return flows, class_links, caps, caps_by_link


def bench_solver_grouped_512_flows(benchmark):
    """Grouped solver throughput on a 512-flow all-to-all set."""
    flows, class_links, caps, caps_by_link = _all_to_all_flows()

    def run():
        repeats = 20
        start = time.perf_counter()
        for _ in range(repeats):
            rates = solve_max_min_grouped(flows, class_links, caps)
        elapsed = (time.perf_counter() - start) / repeats
        assert len(rates) == len(class_links)
        return elapsed

    per_solve = one_shot(benchmark, run)
    reference = compute_max_min(flows, caps_by_link, lambda f: f.links)
    grouped = solve_max_min_grouped(flows, class_links, caps)
    assert all(grouped[f.class_id] == reference[f] for f in flows)
    record("perf_solver",
           f"grouped solver, {len(flows)} flows: {per_solve * 1e3:.2f} ms"
           f"/solve ({1.0 / per_solve:.0f} solves/s)")
    _check_or_record("solver_grouped_512_flows",
                     {"seconds": per_solve, "flows": len(flows)})


def bench_fig3_yarn_job_wallclock(benchmark):
    """End-to-end wall clock of the canonical Fig. 3 point:
    MR-AVG, 16 GB shuffle, 1 GigE, YARN, 32M/16R on 8 slaves."""
    suite = suite_cluster_a(slaves=8, version="yarn")

    def run():
        start = time.perf_counter()
        result = suite.run("MR-AVG", shuffle_gb=16, network="1GigE",
                           memoize=False, **YARN_PARAMS)
        return time.perf_counter() - start, result.execution_time

    wall, sim_time = one_shot(benchmark, run)
    record("perf_fig3_job",
           f"Fig. 3 MR-AVG 16GB 1GigE YARN job: {wall:.3f}s wall, "
           f"{sim_time:.4f}s simulated")
    baseline = _load_baselines().get("fig3_yarn_mravg_16gb_1gige")
    if baseline is not None:
        # Perf work must never change simulation results.
        assert sim_time == baseline["sim_time"], (
            f"simulated time drifted: {sim_time!r} != "
            f"{baseline['sim_time']!r}"
        )
    _check_or_record("fig3_yarn_mravg_16gb_1gige",
                     {"seconds": wall, "sim_time": sim_time})


def bench_trace_overhead_disabled(benchmark):
    """Guard the zero-overhead-when-disabled promise of the trace bus.

    With no tracer attached every emit site must cost one attribute
    check, so the disabled-path wall clock may not regress more than
    ~2% (``TRACE_OVERHEAD_LIMIT``) beyond its committed baseline. The
    smoke limit is ``max(TRACE_OVERHEAD_LIMIT, PERF_SMOKE_FACTOR)`` so
    the 2% bound binds on the baseline machine class while arbitrary CI
    hosts keep the usual slack. Independently of wall clock, a traced
    run must reproduce the untraced simulated time bit-for-bit.
    """
    config = BenchmarkConfig.from_shuffle_size(
        1e9, pattern="avg", network="ipoib-qdr",
        num_maps=8, num_reduces=4, key_size=256, value_size=256)
    cluster = cluster_a(2)

    def run():
        best = float("inf")
        sim_time = None
        for _ in range(3):  # min-of-3 to shave scheduler noise
            start = time.perf_counter()
            result = run_simulated_job(config, cluster=cluster)
            best = min(best, time.perf_counter() - start)
            sim_time = result.execution_time
        return best, sim_time

    wall, sim_time = one_shot(benchmark, run)

    traced = run_simulated_job(config, cluster=cluster, tracer=Tracer())
    assert traced.execution_time == sim_time, (
        "tracing perturbed the simulation: "
        f"{traced.execution_time!r} != {sim_time!r}"
    )
    assert len(traced.trace) > 0

    record("perf_trace_overhead",
           f"tracing-disabled MR-AVG 1GB ipoib-qdr job: {wall:.3f}s wall, "
           f"{sim_time:.4f}s simulated ({len(traced.trace)} trace events "
           "when enabled)")

    baseline = _load_baselines().get("trace_overhead_disabled")
    if (baseline is not None and "sim_time" in baseline
            and not os.environ.get("PERF_BASELINE")):
        assert sim_time == baseline["sim_time"], (
            f"simulated time drifted: {sim_time!r} != "
            f"{baseline['sim_time']!r}"
        )
    check_or_record("trace_overhead_disabled",
                    {"seconds": wall, "sim_time": sim_time},
                    BASELINE_PATH,
                    factor=max(TRACE_OVERHEAD_LIMIT, SMOKE_FACTOR))
