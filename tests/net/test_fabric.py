"""Tests for the max-min fair network fabric."""

import pytest

from repro.net import NetworkFabric, ONE_GIGE, compute_max_min
from repro.net.interconnect import InterconnectSpec
from repro.sim import Simulator

# A simple interconnect with round numbers for exact assertions.
SIMPLE = InterconnectSpec(
    name="simple",
    raw_gbps=1,
    effective_bandwidth=100.0,  # bytes/s
    latency=0.0,
    fetch_setup=0.0,
    cpu_per_byte=0.01,
)


def make_fabric(n_nodes=4, spec=SIMPLE, loopback=1000.0):
    sim = Simulator()
    fabric = NetworkFabric(sim, spec, loopback_bandwidth=loopback)
    for i in range(n_nodes):
        fabric.add_node(f"n{i}", cores=8)
    return sim, fabric


class _FakeFlow:
    def __init__(self, src, dst):
        self.src, self.dst = src, dst


def _links(flow):
    return (("out", flow.src), ("in", flow.dst))


class TestComputeMaxMin:
    def test_single_flow_gets_full_capacity(self):
        f = _FakeFlow("a", "b")
        caps = {("out", "a"): 100.0, ("in", "b"): 100.0}
        rates = compute_max_min([f], caps, _links)
        assert rates[f] == pytest.approx(100.0)

    def test_two_flows_same_links_split_evenly(self):
        f1, f2 = _FakeFlow("a", "b"), _FakeFlow("a", "b")
        caps = {("out", "a"): 100.0, ("in", "b"): 100.0}
        rates = compute_max_min([f1, f2], caps, _links)
        assert rates[f1] == pytest.approx(50.0)
        assert rates[f2] == pytest.approx(50.0)

    def test_bottleneck_spillover(self):
        """Two flows into b (bottleneck), one into c gets leftovers.

        f1: a->b, f2: a->b, f3: a->c. Egress a = 100 shared by 3;
        ingress b = 100 shared by 2. Progressive filling: egress a is
        the tighter link (100/3 < 100/2)... all three frozen at 33.3.
        """
        f1, f2 = _FakeFlow("a", "b"), _FakeFlow("a", "b")
        f3 = _FakeFlow("a", "c")
        caps = {("out", "a"): 100.0, ("in", "b"): 100.0, ("in", "c"): 100.0}
        rates = compute_max_min([f1, f2, f3], caps, _links)
        for f in (f1, f2, f3):
            assert rates[f] == pytest.approx(100.0 / 3)

    def test_asymmetric_bottleneck(self):
        """Ingress-limited flow frees egress bandwidth for the other.

        f1: a->b with ingress b capped at 20; f2: a->c uncapped.
        f1 freezes at 20, f2 then gets 100-20=80 of a's egress.
        """
        f1, f2 = _FakeFlow("a", "b"), _FakeFlow("a", "c")
        caps = {("out", "a"): 100.0, ("in", "b"): 20.0, ("in", "c"): 100.0}
        rates = compute_max_min([f1, f2], caps, _links)
        assert rates[f1] == pytest.approx(20.0)
        assert rates[f2] == pytest.approx(80.0)

    def test_no_link_capacity_exceeded(self):
        """Allocation respects every link capacity (many random flows)."""
        import random

        rng = random.Random(42)
        nodes = [f"n{i}" for i in range(6)]
        flows = [
            _FakeFlow(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)
        ]
        flows = [f for f in flows if f.src != f.dst]
        caps = {}
        for f in flows:
            caps[("out", f.src)] = 100.0
            caps[("in", f.dst)] = 100.0
        rates = compute_max_min(flows, caps, _links)
        usage = {}
        for f in flows:
            for link in _links(f):
                usage[link] = usage.get(link, 0.0) + rates[f]
        for link, used in usage.items():
            assert used <= caps[link] + 1e-6

    def test_work_conserving(self):
        """At least one link of every flow is saturated (max-min)."""
        f1, f2 = _FakeFlow("a", "b"), _FakeFlow("c", "b")
        caps = {
            ("out", "a"): 100.0,
            ("out", "c"): 100.0,
            ("in", "b"): 100.0,
        }
        rates = compute_max_min([f1, f2], caps, _links)
        # ingress b saturated at 100
        assert rates[f1] + rates[f2] == pytest.approx(100.0)

    def test_empty_flows(self):
        assert compute_max_min([], {}, _links) == {}


class TestNetworkFabric:
    def test_single_flow_transfer_time(self):
        sim, fabric = make_fabric()
        flow = fabric.start_flow("n0", "n1", 500.0)
        sim.run_until_event(flow.done)
        assert sim.now == pytest.approx(5.0)

    def test_latency_delays_start(self):
        spec = InterconnectSpec(
            "lat", 1, effective_bandwidth=100.0, latency=1.0,
            fetch_setup=0.0, cpu_per_byte=0.0,
        )
        sim, fabric = make_fabric(spec=spec)
        flow = fabric.start_flow("n0", "n1", 100.0)
        sim.run_until_event(flow.done)
        assert sim.now == pytest.approx(2.0)  # 1s latency + 1s transfer

    def test_extra_delay(self):
        sim, fabric = make_fabric()
        flow = fabric.start_flow("n0", "n1", 100.0, delay=3.0)
        sim.run_until_event(flow.done)
        assert sim.now == pytest.approx(4.0)

    def test_zero_byte_flow_completes_after_latency(self):
        sim, fabric = make_fabric()
        flow = fabric.start_flow("n0", "n1", 0.0)
        sim.run_until_event(flow.done)
        assert sim.now == pytest.approx(0.0)

    def test_negative_bytes_raises(self):
        _sim, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.start_flow("n0", "n1", -1.0)

    def test_unknown_node_raises(self):
        _sim, fabric = make_fabric()
        with pytest.raises(KeyError):
            fabric.start_flow("n0", "ghost", 10.0)

    def test_duplicate_node_raises(self):
        _sim, fabric = make_fabric()
        with pytest.raises(ValueError):
            fabric.add_node("n0")

    def test_two_flows_share_then_speed_up(self):
        """Two equal flows into one node share its ingress, finishing
        together at 2x the solo time."""
        sim, fabric = make_fabric()
        f1 = fabric.start_flow("n0", "n2", 500.0)
        f2 = fabric.start_flow("n1", "n2", 500.0)
        sim.run_until_event(f1.done)
        sim.run_until_event(f2.done)
        assert sim.now == pytest.approx(10.0)

    def test_short_flow_departs_long_flow_accelerates(self):
        """n0->n2 (1000B) and n1->n2 (200B): ingress n2 shared 50/50;
        short flow done at t=4; long has 800 left, full rate -> t=12."""
        sim, fabric = make_fabric()
        long = fabric.start_flow("n0", "n2", 1000.0)
        short = fabric.start_flow("n1", "n2", 200.0)
        sim.run_until_event(short.done)
        assert sim.now == pytest.approx(4.0)
        sim.run_until_event(long.done)
        assert sim.now == pytest.approx(12.0)

    def test_local_flow_uses_loopback_not_nic(self):
        """A local flow rides the loopback and doesn't slow NIC flows."""
        sim, fabric = make_fabric(loopback=1000.0)
        local = fabric.start_flow("n0", "n0", 1000.0)
        remote = fabric.start_flow("n0", "n1", 500.0)
        sim.run_until_event(local.done)
        assert sim.now == pytest.approx(1.0)  # 1000B @ 1000B/s
        sim.run_until_event(remote.done)
        assert sim.now == pytest.approx(5.0)  # full 100B/s all along

    def test_rx_tx_counters(self):
        sim, fabric = make_fabric()
        flow = fabric.start_flow("n0", "n1", 500.0)
        sim.run_until_event(flow.done)
        assert fabric.node("n0").tx.total == pytest.approx(500.0)
        assert fabric.node("n1").rx.total == pytest.approx(500.0)
        assert fabric.node("n1").tx.total == pytest.approx(0.0)

    def test_live_counters_mid_transfer(self):
        sim, fabric = make_fabric()
        fabric.start_flow("n0", "n1", 500.0)
        sim.run(until=2.0)
        assert fabric.node("n1").rx.total == pytest.approx(200.0)

    def test_protocol_cpu_level_tracks_rates(self):
        sim, fabric = make_fabric()  # cpu_per_byte = 0.01
        fabric.start_flow("n0", "n1", 1000.0)
        sim.run(until=1.0)
        # n0 sends at 100 B/s -> 1.0 cores of protocol CPU
        assert fabric.node("n0").protocol_cpu == pytest.approx(1.0)
        sim.run()
        assert fabric.node("n0").protocol_cpu == pytest.approx(0.0)

    def test_all_to_all_shuffle_pattern(self):
        """4 nodes, each sending to all others: symmetric completion."""
        sim, fabric = make_fabric()
        flows = []
        for i in range(4):
            for j in range(4):
                if i != j:
                    flows.append(fabric.start_flow(f"n{i}", f"n{j}", 300.0))
        for f in flows:
            sim.run_until_event(f.done)
        # each NIC carries 3*300=900B at 100B/s egress (3 flows sharing).
        assert sim.now == pytest.approx(9.0)
        for i in range(4):
            assert fabric.node(f"n{i}").rx.total == pytest.approx(900.0)
            assert fabric.node(f"n{i}").tx.total == pytest.approx(900.0)

    def test_flow_conservation_random_pattern(self):
        """Total bytes received equals total bytes sent equals sum of sizes."""
        import random

        rng = random.Random(7)
        sim, fabric = make_fabric(n_nodes=5)
        total = 0.0
        flows = []
        for _ in range(30):
            i, j = rng.randrange(5), rng.randrange(5)
            size = rng.uniform(10, 500)
            total += size
            flows.append(fabric.start_flow(f"n{i}", f"n{j}", size))
        sim.run()
        for f in flows:
            assert f.done.processed and f.done.ok
        wire_bytes = sum(f.nbytes for f in flows if not f.is_local)
        received = sum(fabric.node(f"n{i}").rx.total for i in range(5))
        sent = sum(fabric.node(f"n{i}").tx.total for i in range(5))
        assert received == pytest.approx(wire_bytes, rel=1e-6)
        assert sent == pytest.approx(wire_bytes, rel=1e-6)

    def test_one_gige_realistic_transfer(self):
        """1 GB over 1 GigE takes ~9s point-to-point."""
        sim = Simulator()
        fabric = NetworkFabric(sim, ONE_GIGE)
        fabric.add_node("a")
        fabric.add_node("b")
        flow = fabric.start_flow("a", "b", 1e9)
        sim.run_until_event(flow.done)
        assert sim.now == pytest.approx(1e9 / ONE_GIGE.effective_bandwidth, rel=0.01)
