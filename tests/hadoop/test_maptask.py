"""Tests for the simulated map task."""

import numpy as np
import pytest

from repro.hadoop import DEFAULT_COST_MODEL, JobConf, MapTask, SimNode, WESTMERE_NODE
from repro.net import NetworkFabric, ONE_GIGE
from repro.sim import ResourceMonitor, Simulator


def make_task(nbytes=200e6, records=200_000, reduces=4, jobconf=None,
              costs=None):
    sim = Simulator()
    fabric = NetworkFabric(sim, ONE_GIGE)
    node = SimNode(sim, "n0", WESTMERE_NODE, fabric)
    seg_bytes = np.full(reduces, nbytes / reduces)
    seg_records = np.full(reduces, records // reduces, dtype=np.int64)
    task = MapTask(
        map_id=0,
        node=node,
        segment_bytes=seg_bytes,
        segment_records=seg_records,
        jobconf=jobconf or JobConf(),
        costs=(costs or DEFAULT_COST_MODEL).scaled(WESTMERE_NODE.clock_ghz),
    )
    return sim, node, task


def test_map_task_produces_output():
    sim, _node, task = make_task()
    proc = sim.process(task.run())
    output = sim.run_until_event(proc)
    assert output is task.output
    assert output.map_id == 0
    assert output.total_bytes == pytest.approx(200e6)
    assert output.finished_at == sim.now


def test_spill_count_matches_io_sort_mb():
    """200MB output with an 80MB spill threshold -> 3 spills."""
    sim, _node, task = make_task(nbytes=200e6)
    sim.run_until_event(sim.process(task.run()))
    assert task.stats.spills == 3


def test_single_spill_job_has_no_merge():
    sim, _node, task = make_task(nbytes=50e6)
    sim.run_until_event(sim.process(task.run()))
    assert task.stats.spills == 1
    assert task.stats.merge_passes == 0


def test_duration_grows_with_data():
    _s1, _n1, small = make_task(nbytes=100e6, records=100_000)
    _s2, _n2, big = make_task(nbytes=400e6, records=400_000)
    sim1 = small.node.sim
    sim2 = big.node.sim
    sim1.run_until_event(sim1.process(small.run()))
    sim2.run_until_event(sim2.process(big.run()))
    assert big.stats.duration > small.stats.duration * 2


def test_duration_grows_with_record_count_at_fixed_bytes():
    """Smaller kv pairs (more records, same bytes) cost more CPU —
    the Fig. 4 effect at the map level."""
    _s1, _n1, few = make_task(nbytes=200e6, records=50_000)
    _s2, _n2, many = make_task(nbytes=200e6, records=2_000_000)
    few.node.sim.run_until_event(few.node.sim.process(few.run()))
    many.node.sim.run_until_event(many.node.sim.process(many.run()))
    assert many.stats.duration > few.stats.duration * 2


def test_cpu_time_is_tracked():
    sim, node, task = make_task()
    monitor = ResourceMonitor(sim, interval=0.01)
    monitor.register_gauge("busy", lambda: node.busy_cores)
    monitor.install()
    sim.run_until_event(sim.process(task.run()))
    assert monitor.peak("busy") == 1
    assert node.busy_cores == 0


def test_faster_clock_runs_faster():
    fast_costs = DEFAULT_COST_MODEL  # scaled() applied inside make_task
    _s1, _n1, base = make_task()
    sim, fabric = Simulator(), None
    # Build a task on a node twice as fast.
    from repro.hadoop.cluster import NodeSpec

    fast_node_spec = NodeSpec(cores=8, clock_ghz=5.34, ram_bytes=24e9,
                              disks=2, disk_bandwidth=120e6)
    fabric = NetworkFabric(sim, ONE_GIGE)
    node = SimNode(sim, "n0", fast_node_spec, fabric)
    import numpy as np

    task = MapTask(0, node, np.full(4, 50e6), np.full(4, 50_000, dtype=np.int64),
                   JobConf(), DEFAULT_COST_MODEL.scaled(5.34))
    base.node.sim.run_until_event(base.node.sim.process(base.run()))
    sim.run_until_event(sim.process(task.run()))
    assert task.stats.duration < base.stats.duration
