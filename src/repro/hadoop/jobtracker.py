"""MRv1 scheduling policy: JobTracker/TaskTracker fixed slots.

Hadoop 1.x runs a fixed number of map slots and reduce slots per
TaskTracker; tasks are handed out on heartbeats. The micro-benchmarks
on Cluster A (16 maps / 8 reduces on 4 slaves) run as one map wave of
4 per node and 2 reducers per node with the defaults derived from the
8-core Westmere nodes.

All lifecycle mechanics live in :class:`repro.hadoop.runtime.Runtime`;
this class only binds map and reduce tasks to their dedicated slot
pools.
"""

from __future__ import annotations

from typing import Dict

from repro.hadoop.job import MRV1
from repro.hadoop.node import SimNode
from repro.hadoop.runtime import Runtime
from repro.sim.resources import SlotResource


class JobTrackerScheduler(Runtime):
    """Slot-based task placement, round-robin across TaskTrackers."""

    name = MRV1

    def _build_pools(self) -> None:
        self._map_slots: Dict[str, SlotResource] = {}
        self._reduce_slots: Dict[str, SlotResource] = {}
        for node in self.nodes:
            cores = node.spec.cores
            self._map_slots[node.name] = SlotResource(
                self.sim, self.jobconf.map_slots(cores),
                name=f"{node.name}:map-slots"
            )
            self._reduce_slots[node.name] = SlotResource(
                self.sim, self.jobconf.reduce_slots(cores),
                name=f"{node.name}:reduce-slots"
            )

    def map_pool(self, node: SimNode) -> SlotResource:
        return self._map_slots[node.name]

    def reduce_pool(self, node: SimNode) -> SlotResource:
        return self._reduce_slots[node.name]
