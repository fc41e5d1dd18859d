"""Tests for SlotResource and FairShareResource."""

import pytest

from repro.sim import FairShareResource, SimulationError, SlotResource, Simulator


class TestSlotResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SlotResource(sim, 0)

    def test_grant_within_capacity_is_immediate(self):
        sim = Simulator()
        slots = SlotResource(sim, 2)
        grants = []

        def worker(i):
            yield slots.request()
            grants.append((i, sim.now))

        sim.process(worker(0))
        sim.process(worker(1))
        sim.run()
        assert grants == [(0, 0.0), (1, 0.0)]
        assert slots.in_use == 2
        assert slots.available == 0

    def test_fifo_queueing(self):
        sim = Simulator()
        slots = SlotResource(sim, 1)
        order = []

        def worker(i, hold):
            yield slots.request()
            order.append((i, sim.now))
            yield sim.timeout(hold)
            slots.release()

        for i in range(4):
            sim.process(worker(i, hold=2.0))
        sim.run()
        assert order == [(0, 0.0), (1, 2.0), (2, 4.0), (3, 6.0)]

    def test_release_without_request_raises(self):
        sim = Simulator()
        slots = SlotResource(sim, 1)
        with pytest.raises(SimulationError):
            slots.release()

    def test_queued_count(self):
        sim = Simulator()
        slots = SlotResource(sim, 1)
        slots.request()
        slots.request()
        slots.request()
        assert slots.queued == 2


class TestFairShareResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FairShareResource(sim, 0.0)

    def test_single_job_full_rate(self):
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        done = disk.submit(500.0)
        sim.run_until_event(done)
        assert sim.now == pytest.approx(5.0)

    def test_zero_work_completes_instantly(self):
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        done = disk.submit(0.0)
        sim.run_until_event(done)
        assert sim.now == 0.0

    def test_negative_work_raises(self):
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        with pytest.raises(ValueError):
            disk.submit(-1.0)

    def test_equal_sharing_two_jobs(self):
        """Two equal jobs started together share the rate and finish together."""
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        times = {}

        def submit(name, amount):
            ev = disk.submit(amount)
            ev.add_callback(lambda _e: times.__setitem__(name, sim.now))

        submit("a", 500.0)
        submit("b", 500.0)
        sim.run()
        assert times["a"] == pytest.approx(10.0)
        assert times["b"] == pytest.approx(10.0)

    def test_processor_sharing_dynamics(self):
        """A late-arriving job slows the first one down, exactly.

        Job A: 1000 units; B arrives at t=2 with 100 units.
        0-2: A alone at 100/s -> A has 800 left.
        2-?: both at 50/s; B finishes at t=4 (100/50=2s); A has 700 left.
        4-11: A alone at 100/s -> finishes at t=11.
        """
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        times = {}

        def run():
            ev_a = disk.submit(1000.0)
            ev_a.add_callback(lambda _e: times.__setitem__("a", sim.now))
            yield sim.timeout(2.0)
            ev_b = disk.submit(100.0)
            ev_b.add_callback(lambda _e: times.__setitem__("b", sim.now))

        sim.process(run())
        sim.run()
        assert times["b"] == pytest.approx(4.0)
        assert times["a"] == pytest.approx(11.0)

    def test_work_conservation(self):
        """Total served bytes equals total submitted bytes."""
        sim = Simulator()
        disk = FairShareResource(sim, capacity=64.0)
        amounts = [10.0, 200.0, 35.5, 0.25, 99.0]

        def run():
            for amount in amounts:
                disk.submit(amount)
                yield sim.timeout(0.5)

        sim.process(run())
        sim.run()
        assert disk.bytes_served.total == pytest.approx(sum(amounts))

    def test_busy_tracker(self):
        """The disk stays busy at full rate until its work drains, then idles."""
        sim = Simulator()
        disk = FairShareResource(sim, capacity=100.0)
        disk.submit(200.0)
        seen = []

        def probe():
            yield sim.timeout(1.0)
            seen.append((disk.active_jobs, disk.bytes_served.total))

        sim.process(probe())
        sim.run()  # no timer outlives the last job
        assert sim.now == pytest.approx(2.0)
        assert seen == [(1, pytest.approx(100.0))]
        # busy time = work served / capacity
        assert disk.bytes_served.total / disk.capacity == pytest.approx(2.0)
        assert disk.active_jobs == 0

    def test_many_jobs_total_time(self):
        """n equal jobs under PS finish at n * (single-job time)."""
        sim = Simulator()
        disk = FairShareResource(sim, capacity=10.0)
        for _ in range(8):
            disk.submit(10.0)
        sim.run()
        assert sim.now == pytest.approx(8.0)
