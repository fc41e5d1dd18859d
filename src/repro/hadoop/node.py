"""The simulated slave node runtime: CPU accounting and storage.

Each slave node owns:

* a busy-core count (task CPU bursts in progress — added to the
  fabric node's protocol CPU it yields the Fig. 7(a) trace);
* a :class:`StorageService` modeling its local disks *behind the OS
  page cache*: writes are absorbed at memory speed while the dirty-page
  budget lasts and are flushed to disk in the background; reads of
  recently-written data (map outputs being shuffled!) mostly hit cache.
  This is essential to the paper's results — if every spill paid raw
  platter bandwidth, the shuffle would be disk-bound and no network
  upgrade could show a 24 % gain.
"""

from __future__ import annotations

from typing import Generator, List

from repro.hadoop.cluster import NodeSpec
from repro.net.fabric import FabricNode, NetworkFabric
from repro.sim.events import AllOf, Event
from repro.sim.kernel import Simulator
from repro.sim.resources import FairShareResource


class StorageService:
    """Page-cache-aware local storage of one node."""

    def __init__(self, sim: Simulator, spec: NodeSpec, name: str):
        self.sim = sim
        self.spec = spec
        self.cache = FairShareResource(
            sim, spec.cache_bandwidth, name=f"{name}:cache"
        )
        self.disk = FairShareResource(
            sim, spec.aggregate_disk_bandwidth, name=f"{name}:disk"
        )
        self._dirty = 0.0
        self._total_written = 0.0

    @property
    def dirty_bytes(self) -> float:
        """Dirty page backlog awaiting background writeback."""
        return self._dirty

    @property
    def total_written(self) -> float:
        return self._total_written

    def write(self, nbytes: float, transient: bool = False) -> Event:
        """Write ``nbytes``; returns the foreground completion event.

        ``transient`` marks short-lived files — spill runs that the
        framework deletes after the next merge. On a real node these
        live and die in the page cache and are rarely flushed (the
        kernel drops their dirty pages on unlink), so they cost a
        memory copy, not platter bandwidth. Persistent writes (the
        final map output) are absorbed by the dirty-page budget and
        flushed in the background; overflow throttles to disk speed,
        as the kernel does when dirty ratios are exceeded.
        """
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        if transient:
            return self.cache.submit(nbytes)
        self._total_written += nbytes
        budget_left = max(0.0, self.spec.page_cache_bytes - self._dirty)
        cached = min(nbytes, budget_left)
        direct = nbytes - cached
        events: List[Event] = []
        if cached > 0:
            self._dirty += cached
            events.append(self.cache.submit(cached))
            writeback = self.disk.submit(cached)
            writeback.add_callback(lambda _ev, c=cached: self._flushed(c))
        if direct > 0:
            events.append(self.disk.submit(direct))
        if not events:
            done = self.sim.event()
            done.succeed()
            return done
        if len(events) == 1:
            return events[0]
        return AllOf(self.sim, events)

    def _flushed(self, nbytes: float) -> None:
        self._dirty = max(0.0, self._dirty - nbytes)

    def read(self, nbytes: float, transient: bool = False) -> Event:
        """Read ``nbytes``; recently-written bytes hit the page cache.

        ``transient`` reads target just-written spill runs — always
        cached. For persistent data the hit fraction decays as the
        working set outgrows the cache:
        ``min(1, cache_bytes / total_written)``.
        """
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        if transient:
            return self.cache.submit(nbytes)
        if self._total_written <= 0:
            hit_fraction = 1.0
        else:
            hit_fraction = min(1.0, self.spec.page_cache_bytes / self._total_written)
        cached = nbytes * hit_fraction
        direct = nbytes - cached
        events: List[Event] = []
        if cached > 0:
            events.append(self.cache.submit(cached))
        if direct > 0:
            events.append(self.disk.submit(direct))
        if not events:
            done = self.sim.event()
            done.succeed()
            return done
        if len(events) == 1:
            return events[0]
        return AllOf(self.sim, events)


class SimNode:
    """One slave: busy cores, storage, and its NIC on the fabric."""

    def __init__(self, sim: Simulator, name: str, spec: NodeSpec,
                 fabric: NetworkFabric, rack: int = 0):
        self.sim = sim
        self.name = name
        self.spec = spec
        self.storage = StorageService(sim, spec, name)
        #: Cores occupied by :meth:`cpu_burst` right now.
        self.busy_cores = 0
        self.fabric_node: FabricNode = fabric.add_node(
            name, cores=spec.cores, rack=rack
        )
        #: Straggler injection: every CPU burst on this node is
        #: multiplied by this factor (see :mod:`repro.faults`).
        self.cpu_slowdown = 1.0

    def cpu_burst(self, duration: float) -> Generator:
        """Occupy one core for ``duration`` seconds (sub-generator).

        Usage inside a process: ``yield from node.cpu_burst(t)``.
        """
        if duration <= 0:
            return
        if self.cpu_slowdown != 1.0:
            duration = duration * self.cpu_slowdown
        self.busy_cores += 1
        try:
            yield self.sim.timeout(duration)
        finally:
            self.busy_cores -= 1

    def total_cpu_level(self) -> float:
        """Busy cores right now: task work + protocol processing."""
        return min(
            float(self.spec.cores),
            self.busy_cores + self.fabric_node.protocol_cpu,
        )

    def __repr__(self) -> str:
        return f"<SimNode {self.name}>"
