"""YARN (MRv2) scheduling policy: ResourceManager containers.

Apache Hadoop NextGen MapReduce replaces fixed slots with fungible
containers: every NodeManager offers ``containers_per_node`` of them,
map and reduce tasks draw from the same pool, and the job's
ApplicationMaster itself occupies one container for the lifetime of the
job. Containers cost an extra allocation/launch round trip per task.

This is the framework the paper's Fig. 3 runs (Hadoop 2.x on 8 slaves
with 32 maps / 16 reduces).

All lifecycle mechanics live in :class:`repro.hadoop.runtime.Runtime`;
this class only supplies the shared container pool and the AppMaster
bring-up/teardown hooks.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hadoop.job import YARN
from repro.hadoop.node import SimNode
from repro.hadoop.runtime import Runtime
from repro.sim.resources import SlotResource


class YarnScheduler(Runtime):
    """Container-based task placement with an AppMaster container."""

    name = YARN

    def _build_pools(self) -> None:
        self._containers: Dict[str, SlotResource] = {
            node.name: SlotResource(
                self.sim,
                self.jobconf.containers(node.spec.cores),
                name=f"{node.name}:containers",
            )
            for node in self.nodes
        }
        self._appmaster_node: Optional[SimNode] = None

    def map_pool(self, node: SimNode) -> SlotResource:
        return self._containers[node.name]

    def reduce_pool(self, node: SimNode) -> SlotResource:
        return self._containers[node.name]

    @property
    def task_start_extra(self) -> float:
        return self.costs.yarn_container_start_extra

    def job_started(self) -> None:
        """Pin the AppMaster's container on the first NodeManager."""
        node = self.nodes[0]
        grant = self._containers[node.name].request()
        if not grant.triggered:  # pragma: no cover - capacity >= 2 always
            raise RuntimeError("no container available for the AppMaster")
        self._appmaster_node = node

    def job_finished(self) -> None:
        if self._appmaster_node is not None:
            self._containers[self._appmaster_node.name].release()
            self._appmaster_node = None

    def containers_available(self, node: SimNode) -> int:
        return self._containers[node.name].available
