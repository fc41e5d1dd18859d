"""Tests for the slave-node runtime: storage (page cache) and CPU."""

import pytest

from repro.hadoop import SimNode, WESTMERE_NODE
from repro.hadoop.cluster import NodeSpec
from repro.net import NetworkFabric, ONE_GIGE
from repro.sim import Simulator

SMALL_NODE = NodeSpec(
    cores=4, clock_ghz=2.0, ram_bytes=1000.0, disks=1,
    disk_bandwidth=10.0, page_cache_fraction=0.5, cache_bandwidth=100.0,
)  # cache budget: 500 bytes; cache 100 B/s; disk 10 B/s


def make_node(spec=SMALL_NODE):
    sim = Simulator()
    fabric = NetworkFabric(sim, ONE_GIGE)
    return sim, SimNode(sim, "n0", spec, fabric)


class TestStorage:
    def test_cached_write_is_fast(self):
        sim, node = make_node()
        done = node.storage.write(100.0)
        sim.run_until_event(done)
        # 100 B at cache speed (100 B/s) = 1s; the background writeback
        # continues but the foreground is done.
        assert sim.now == pytest.approx(1.0)

    def test_transient_write_never_touches_disk(self):
        sim, node = make_node()
        done = node.storage.write(400.0, transient=True)
        sim.run_until_event(done)
        assert sim.now == pytest.approx(4.0)
        sim.run()
        assert node.storage.disk.bytes_served.total == pytest.approx(0.0)

    def test_persistent_write_is_flushed_to_disk(self):
        sim, node = make_node()
        node.storage.write(100.0)
        sim.run()
        assert node.storage.disk.bytes_served.total == pytest.approx(100.0)
        assert node.storage.dirty_bytes == pytest.approx(0.0)

    def test_overflow_write_throttles_to_disk(self):
        """Writes beyond the dirty budget block on platter bandwidth."""
        sim, node = make_node()
        done = node.storage.write(600.0)  # budget 500
        sim.run_until_event(done)
        # 500 cached (5s at 100 B/s) but 100 direct at ~disk speed,
        # sharing the disk with the 500-byte writeback.
        assert sim.now > 10.0

    def test_transient_read_hits_cache(self):
        sim, node = make_node()
        done = node.storage.read(200.0, transient=True)
        sim.run_until_event(done)
        assert sim.now == pytest.approx(2.0)

    def test_read_of_small_working_set_is_cached(self):
        sim, node = make_node()
        sim.run_until_event(node.storage.write(100.0))
        start = sim.now
        sim.run_until_event(node.storage.read(100.0))
        assert sim.now - start == pytest.approx(1.0, rel=0.2)

    def test_read_miss_fraction_grows_with_working_set(self):
        """Once total_written >> cache, reads mostly hit the platter."""
        sim, node = make_node()
        node.storage._total_written = 5000.0  # 10x the cache budget
        done = node.storage.read(100.0)
        sim.run_until_event(done)
        # 90 bytes from disk at 10 B/s ~ 9s dominates.
        assert sim.now > 5.0

    def test_zero_byte_ops_complete_instantly(self):
        sim, node = make_node()
        sim.run_until_event(node.storage.write(0.0))
        sim.run_until_event(node.storage.read(0.0))
        assert sim.now == 0.0

    def test_negative_sizes_rejected(self):
        _sim, node = make_node()
        with pytest.raises(ValueError):
            node.storage.write(-1.0)
        with pytest.raises(ValueError):
            node.storage.read(-1.0)


class TestSimNodeCpu:
    def test_cpu_burst_tracks_busy_time(self):
        sim, node = make_node()
        seen = []

        def work():
            yield from node.cpu_burst(5.0)

        def probe():
            yield sim.timeout(2.5)
            seen.append(node.busy_cores)

        sim.process(work())
        sim.process(probe())
        sim.run()
        assert sim.now == pytest.approx(5.0)
        assert seen == [1]
        assert node.busy_cores == 0

    def test_zero_burst_is_noop(self):
        sim, node = make_node()
        seen = []

        def work():
            yield from node.cpu_burst(0.0)
            seen.append(node.busy_cores)
            yield sim.timeout(1.0)

        sim.process(work())
        sim.run()
        assert seen == [0]
        assert node.busy_cores == 0

    def test_killed_burst_frees_its_core(self):
        sim, node = make_node()
        burst = sim.process(node.cpu_burst(5.0))
        sim.run(until=1.0)
        assert node.busy_cores == 1
        burst.kill()
        assert node.busy_cores == 0

    def test_total_cpu_level_includes_protocol(self):
        sim, node = make_node(WESTMERE_NODE)
        node.busy_cores = 2
        # 1GigE burns 3 ns of protocol CPU per byte moved.
        node.fabric_node.in_rate = 0.3e9
        node.fabric_node.out_rate = 0.2e9
        assert node.fabric_node.protocol_cpu == pytest.approx(1.5)
        assert node.total_cpu_level() == pytest.approx(3.5)

    def test_total_cpu_level_capped_at_cores(self):
        _sim, node = make_node()
        node.busy_cores = 1
        node.fabric_node.in_rate = 2e9  # 6 cores of protocol CPU
        assert node.fabric_node.protocol_cpu == 4.0
        assert node.total_cpu_level() == 4.0
