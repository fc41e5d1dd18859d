"""Tests for byte counters and the monitor."""

import pytest

from repro.sim import (
    ByteCounter,
    FairShareResource,
    ResourceMonitor,
    Simulator,
    SlotResource,
)


class TestByteCounter:
    def test_accumulates(self):
        c = ByteCounter()
        c.add(100)
        c.add(50.5)
        assert c.total == pytest.approx(150.5)

    def test_negative_raises(self):
        c = ByteCounter()
        with pytest.raises(ValueError):
            c.add(-1)


class TestResourceMonitor:
    def test_interval_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ResourceMonitor(sim, interval=0)

    def test_rate_sampling(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim, interval=1.0)
        counter = ByteCounter()
        monitor.register_rate("net_mb_s", counter, scale=1.0 / 1e6)
        monitor.install()

        def producer():
            for _ in range(5):
                counter.add(10e6)  # 10 MB per second
                yield sim.timeout(1.0)

        sim.process(producer())
        sim.run(until=5.0)
        times, values = monitor.series("net_mb_s")
        assert len(values) == 5
        for v in values:
            assert v == pytest.approx(10.0)

    def test_utilization_sampling(self):
        """Busy slots read as a percent of capacity when a sample is due."""
        sim = Simulator()
        monitor = ResourceMonitor(sim, interval=1.0)
        slots = SlotResource(sim, 2)
        monitor.register_gauge(
            "cpu", lambda: 100.0 * slots.in_use / slots.capacity)
        monitor.install()

        def load():
            yield sim.timeout(0.5)
            slots.request()
            slots.request()  # 100% from 0.5s
            yield sim.timeout(2.0)
            slots.release()  # 50% from 2.5s
            yield sim.timeout(1.0)
            slots.release()  # idle from 3.5s

        sim.process(load())
        sim.run(until=4.0)
        _times, values = monitor.series("cpu")
        assert values == [100.0, 100.0, 50.0, 0.0]

    def test_gauge_sampling(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim, interval=2.0)
        monitor.register_gauge("clock", lambda: sim.now)
        monitor.install()
        sim.run(until=6.0)
        _times, values = monitor.series("clock")
        assert values == [2.0, 4.0, 6.0]

    def test_duplicate_metric_raises(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim)
        monitor.register_gauge("x", lambda: 0.0)
        with pytest.raises(ValueError):
            monitor.register_gauge("x", lambda: 1.0)

    def test_double_install_raises(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim)
        monitor.install()
        with pytest.raises(RuntimeError):
            monitor.install()

    def test_peak_and_mean(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim, interval=1.0)
        counter = ByteCounter()
        monitor.register_rate("rate", counter)
        monitor.install()

        def producer():
            counter.add(10.0)
            yield sim.timeout(1.0)
            counter.add(30.0)
            yield sim.timeout(1.0)

        sim.process(producer())
        sim.run(until=2.0)
        assert monitor.peak("rate") == pytest.approx(30.0)
        assert monitor.mean("rate") == pytest.approx(20.0)

    def test_peak_empty_series(self):
        sim = Simulator()
        monitor = ResourceMonitor(sim)
        monitor.register_gauge("never", lambda: 1.0)
        assert monitor.peak("never") == 0.0
        assert monitor.mean("never") == 0.0

    def test_monitor_with_fair_share_resource(self):
        """End-to-end: monitor a disk's throughput trace."""
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        monitor = ResourceMonitor(sim, interval=1.0)
        monitor.register_rate("disk_bytes", disk.bytes_served)
        monitor.install()
        disk.submit(300.0)
        sim.run(until=5.0)
        _t, values = monitor.series("disk_bytes")
        # ~100 B/s for 3 seconds then idle
        assert values[0] == pytest.approx(100.0)
        assert values[1] == pytest.approx(100.0)
        assert values[2] == pytest.approx(100.0)
        assert values[3] == pytest.approx(0.0)
