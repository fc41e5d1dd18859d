"""Additional fabric edge cases and bookkeeping checks."""

import pytest

from repro.net import NetworkFabric, ONE_GIGE, RDMA_FDR
from repro.net.interconnect import InterconnectSpec
from repro.sim import Simulator

SIMPLE = InterconnectSpec(
    name="simple", raw_gbps=1, effective_bandwidth=100.0, latency=0.0,
    fetch_setup=0.0, cpu_per_byte=0.0,
)


def test_flow_timestamps():
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    fabric.add_node("a")
    fabric.add_node("b")
    flow = fabric.start_flow("a", "b", 100.0, delay=2.0)
    assert flow.started_at is None
    sim.run_until_event(flow.done)
    assert flow.started_at == pytest.approx(2.0)
    assert flow.finished_at == pytest.approx(3.0)


def test_flow_repr_and_ids_unique():
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    fabric.add_node("a")
    fabric.add_node("b")
    f1 = fabric.start_flow("a", "b", 10.0)
    f2 = fabric.start_flow("a", "b", 10.0)
    assert f1.id != f2.id
    assert "a->b" in repr(f1)


def test_active_flow_count():
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    fabric.add_node("a")
    fabric.add_node("b")
    assert fabric.active_flows == 0
    fabric.start_flow("a", "b", 1000.0)
    sim.run(until=1.0)
    assert fabric.active_flows == 1
    sim.run()
    assert fabric.active_flows == 0


def test_flows_arriving_mid_drain():
    """A flow arriving while another is finishing shares correctly."""
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    for n in ("a", "b", "c"):
        fabric.add_node(n)
    f1 = fabric.start_flow("a", "c", 100.0)

    def late():
        yield sim.timeout(0.5)
        f2 = fabric.start_flow("b", "c", 100.0)
        yield f2.done
        return sim.now

    proc = sim.process(late())
    end = sim.run_until_event(proc)
    # f1: 50B alone by t=0.5, then 50B at the shared 50B/s -> 1.5;
    # f2: 50B shared by t=1.5, then its last 50B alone at 100B/s -> 2.0.
    assert end == pytest.approx(2.0)
    assert f1.finished_at == pytest.approx(1.5)


def test_protocol_cpu_zero_for_rdma():
    sim = Simulator()
    fabric = NetworkFabric(sim, RDMA_FDR)
    fabric.add_node("a")
    fabric.add_node("b")
    fabric.start_flow("a", "b", 1e9)
    sim.run(until=0.05)
    # 0.05e-9 s/B at ~5.5 GB/s: well under a tenth of a core.
    assert fabric.node("a").protocol_cpu < 0.3


def test_protocol_cpu_significant_for_sockets():
    sim = Simulator()
    fabric = NetworkFabric(sim, ONE_GIGE)
    fabric.add_node("a")
    fabric.add_node("b")
    fabric.start_flow("a", "b", 1e9)
    sim.run(until=1.0)
    # 3 ns/B at 112 MB/s ~ 0.34 cores.
    assert fabric.node("a").protocol_cpu == pytest.approx(0.336, rel=0.05)


def test_sequential_flows_reuse_capacity():
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    fabric.add_node("a")
    fabric.add_node("b")
    f1 = fabric.start_flow("a", "b", 100.0)
    sim.run_until_event(f1.done)
    f2 = fabric.start_flow("a", "b", 100.0)
    sim.run_until_event(f2.done)
    assert sim.now == pytest.approx(2.0)


def test_bidirectional_flows_do_not_contend():
    """a->b and b->a use different directions of each NIC."""
    sim = Simulator()
    fabric = NetworkFabric(sim, SIMPLE)
    fabric.add_node("a")
    fabric.add_node("b")
    f1 = fabric.start_flow("a", "b", 100.0)
    f2 = fabric.start_flow("b", "a", 100.0)
    sim.run_until_event(f1.done)
    sim.run_until_event(f2.done)
    assert sim.now == pytest.approx(1.0)
