"""Tests for the Runtime protocol, runtime selection, and JobExecution engine."""

import pytest

from repro.core.config import BenchmarkConfig
from repro.hadoop import (
    JobConf,
    Runtime,
    cluster_a,
    create_runtime,
    run_simulated_job,
)
from repro.hadoop.costmodel import DEFAULT_COST_MODEL
from repro.hadoop.job import VERSIONS
from repro.hadoop.jobtracker import JobTrackerScheduler
from repro.hadoop.node import SimNode
from repro.hadoop.yarn import YarnScheduler
from repro.net.fabric import NetworkFabric
from repro.net.interconnect import get_interconnect
from repro.sim.kernel import Simulator
from repro.sim.trace import CAT_PHASE, CAT_SCHED, CAT_TASK, Tracer


def make_world(num_nodes=2):
    sim = Simulator()
    cluster = cluster_a(num_nodes)
    fabric = NetworkFabric(sim, get_interconnect("ipoib-qdr"))
    nodes = [
        SimNode(sim, name, cluster.node, fabric)
        for name in cluster.slave_names()
    ]
    return sim, nodes


def cfg(**kw):
    defaults = dict(num_pairs=200_000, num_maps=8, num_reduces=4,
                    key_size=256, value_size=256, network="ipoib-qdr")
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


class TestRegistry:
    def test_builtins_registered(self):
        sim, nodes = make_world()
        costs = DEFAULT_COST_MODEL.scaled(nodes[0].spec.clock_ghz)
        for version in VERSIONS:
            rt = create_runtime(version, sim, nodes,
                                JobConf(version=version), costs)
            assert rt.name == version

    def test_create_by_name(self):
        sim, nodes = make_world()
        costs = DEFAULT_COST_MODEL.scaled(nodes[0].spec.clock_ghz)
        rt = create_runtime("mrv1", sim, nodes, JobConf(), costs)
        assert isinstance(rt, JobTrackerScheduler)
        rt = create_runtime("yarn", sim, nodes, JobConf(version="yarn"),
                            costs)
        assert isinstance(rt, YarnScheduler)

    def test_unknown_name_rejected(self):
        sim, nodes = make_world()
        with pytest.raises(ValueError, match="unknown runtime"):
            create_runtime("spark", sim, nodes, JobConf(),
                           DEFAULT_COST_MODEL)


class TestRuntimeProtocol:
    def test_mrv1_separate_pools_yarn_shared(self):
        sim, nodes = make_world()
        costs = DEFAULT_COST_MODEL.scaled(nodes[0].spec.clock_ghz)
        mrv1 = create_runtime("mrv1", sim, nodes, JobConf(), costs)
        assert mrv1.map_pool(nodes[0]) is not mrv1.reduce_pool(nodes[0])
        yarn = create_runtime("yarn", sim, nodes, JobConf(version="yarn"),
                              costs)
        assert yarn.map_pool(nodes[0]) is yarn.reduce_pool(nodes[0])

    def test_task_start_extra(self):
        sim, nodes = make_world()
        costs = DEFAULT_COST_MODEL.scaled(nodes[0].spec.clock_ghz)
        assert create_runtime("mrv1", sim, nodes, JobConf(),
                              costs).task_start_extra == 0.0
        assert create_runtime("yarn", sim, nodes, JobConf(version="yarn"),
                              costs).task_start_extra > 0.0

    def test_base_hooks_are_abstract_or_noop(self):
        class Bare(Runtime):
            name = "bare"

            def _build_pools(self):
                pass

        sim, nodes = make_world()
        rt = Bare(sim, nodes, JobConf(), DEFAULT_COST_MODEL)
        rt.job_started()
        rt.job_finished()
        with pytest.raises(NotImplementedError):
            rt.map_pool(nodes[0])
        with pytest.raises(NotImplementedError):
            rt.reduce_pool(nodes[0])


class TestPhaseBreakdown:
    def test_phases_sum_to_task_durations(self):
        result = run_simulated_job(cfg(), cluster=cluster_a(2))
        breakdown = result.phase_breakdown()
        assert breakdown.consistent(result.task_durations())
        assert len(breakdown.rows) == 8 + 4

    def test_totals_and_by_node(self):
        result = run_simulated_job(cfg(), cluster=cluster_a(2))
        breakdown = result.phase_breakdown()
        totals = breakdown.totals()
        assert totals["map"] > 0 and totals["shuffle"] > 0
        by_node = breakdown.by_node()
        assert set(by_node) == {s.node for s in result.map_stats} | {
            s.node for s in result.reduce_stats}
        for phase, total in totals.items():
            assert sum(n[phase] for n in by_node.values()) == pytest.approx(
                total)

    def test_map_rows_have_no_reduce_phases(self):
        result = run_simulated_job(cfg(), cluster=cluster_a(2))
        for row in result.phase_breakdown().rows:
            if row.task.startswith("map"):
                assert row.phases["shuffle"] == 0.0
                assert row.phases["reduce"] == 0.0
            else:
                assert row.phases["map"] == 0.0


class TestTracedExecution:
    def test_trace_carried_on_result(self):
        tracer = Tracer()
        result = run_simulated_job(cfg(), cluster=cluster_a(2),
                                   tracer=tracer)
        assert result.trace is tracer
        assert len(tracer) > 0

    def test_task_spans_cover_all_tasks(self):
        tracer = Tracer()
        run_simulated_job(cfg(), cluster=cluster_a(2), tracer=tracer)
        tasks = tracer.spans(CAT_TASK)
        names = sorted(ev.name for ev in tasks)
        assert names.count("map-task") == 8
        assert names.count("reduce-task") == 4

    def test_sched_and_phase_spans_present(self):
        tracer = Tracer()
        run_simulated_job(cfg(), cluster=cluster_a(2), tracer=tracer)
        # Grant waits are recorded even when the wait was zero-length
        # (spans() filters zero-duration records; check the raw events).
        sched = [ev for ev in tracer.events if ev.cat == CAT_SCHED]
        assert sum(1 for ev in sched if ev.name == "grant-wait") == 8 + 4
        phase_names = {ev.name for ev in tracer.spans(CAT_PHASE)}
        assert {"collect-spill", "shuffle-fetch",
                "shuffle-merge"} <= phase_names

    def test_untraced_result_has_no_trace(self):
        result = run_simulated_job(cfg(), cluster=cluster_a(2))
        assert result.trace is None
