"""The Runtime protocol: one task-lifecycle engine, two scheduling policies.

The paper benchmarks two framework generations — Hadoop 1.x (MRv1
JobTracker slots) and 2.x (YARN containers). Both run the *same* job
lifecycle: place tasks round-robin, hand out execution grants from
per-node pools in waves, launch attempts after half a heartbeat, retry
failures, fire reduce slowstart, and book completions. Only the *pool
policy* differs (dedicated map/reduce slots vs one fungible container
pool plus an AppMaster).

This module factors that split:

* :class:`Runtime` — the shared base: placement, grant acquisition and
  release, wave accounting, and lifecycle hooks. Concrete runtimes
  (:class:`~repro.hadoop.jobtracker.JobTrackerScheduler`,
  :class:`~repro.hadoop.yarn.YarnScheduler`) override only the pool
  construction and framework-specific hooks; :func:`create_runtime`
  selects one by its ``JobConf.version`` string instead of branching
  on classes.
* :class:`JobExecution` — the task-lifecycle engine extracted from the
  single-job and multi-job drivers: wave scheduling over the runtime's
  grants, seeded failure injection, speculative backup attempts,
  slowstart, and completion bookkeeping. Both
  :func:`repro.hadoop.simulation.run_simulated_job` and
  :func:`repro.hadoop.multijob.run_concurrent_jobs` drive it.

Every lifecycle step also emits structured spans onto the simulator's
:class:`~repro.sim.trace.Tracer` (``sched`` category: grant waits,
slowstart, speculation) — zero-overhead no-ops when tracing is off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Type

from repro.hadoop.costmodel import CostModel
from repro.hadoop.events_log import JobEventLog
from repro.hadoop.job import MRV1, YARN, JobConf
from repro.hadoop.maptask import MapTask
from repro.hadoop.node import SimNode
from repro.hadoop.reducetask import ReduceTask
from repro.hadoop.shuffle import MapOutputRegistry
from repro.sim.events import AllOf, AnyOf, Event
from repro.sim.kernel import Simulator
from repro.sim.resources import SlotResource
from repro.sim.trace import CAT_JOB, CAT_SCHED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import BenchmarkConfig
    from repro.faults import FaultInjector
    from repro.net.fabric import NetworkFabric
    from repro.net.transport import TransportModel
    from repro.sim.process import Process

#: Speculation policy: consider backups once this fraction of maps is
#: done, for tasks running this factor beyond the mean duration.
SPECULATION_THRESHOLD = 0.75
SPECULATION_SLOWDOWN = 1.25


class TaskFailedError(RuntimeError):
    """A task exhausted ``max_task_attempts``."""


class Runtime:
    """Shared scheduling substrate for a Hadoop framework generation.

    Subclasses supply the pool policy by implementing :meth:`_build_pools`
    and :meth:`map_pool` / :meth:`reduce_pool`, plus the lifecycle hooks
    (:meth:`job_started`, :meth:`job_finished`, :attr:`task_start_extra`).
    Everything else — placement, grant bookkeeping, wave accounting — is
    implemented here once.
    """

    #: The ``JobConf.version`` value this runtime serves.
    name: str = ""

    def __init__(
        self,
        sim: Simulator,
        nodes: List[SimNode],
        jobconf: JobConf,
        costs: CostModel,
    ):
        self.sim = sim
        self.nodes = nodes
        self.jobconf = jobconf
        self.costs = costs
        self._build_pools()

    # -- policy hooks (subclass responsibility) ---------------------------

    def _build_pools(self) -> None:
        """Create the per-node grant pools (slots or containers)."""
        raise NotImplementedError

    def map_pool(self, node: SimNode) -> SlotResource:
        """The pool a map task on ``node`` draws its grant from."""
        raise NotImplementedError

    def reduce_pool(self, node: SimNode) -> SlotResource:
        """The pool a reduce task on ``node`` draws its grant from."""
        raise NotImplementedError

    @property
    def task_start_extra(self) -> float:
        """Extra per-task start latency this framework generation adds."""
        return 0.0

    def job_started(self) -> None:
        """Hook for framework bring-up (e.g. the YARN AppMaster)."""

    def job_finished(self) -> None:
        """Hook for framework teardown."""

    # -- shared implementation --------------------------------------------

    def map_node(self, map_id: int) -> SimNode:
        """Round-robin map placement (no data locality: no HDFS)."""
        return self.nodes[map_id % len(self.nodes)]

    def reduce_node(self, reduce_id: int) -> SimNode:
        return self.nodes[reduce_id % len(self.nodes)]

    def acquire_map(self, node: SimNode) -> Event:
        return self.map_pool(node).request()

    def release_map(self, node: SimNode) -> None:
        self.map_pool(node).release()

    def acquire_reduce(self, node: SimNode) -> Event:
        return self.reduce_pool(node).request()

    def release_reduce(self, node: SimNode) -> None:
        self.reduce_pool(node).release()

    def map_wave_count(self, num_maps: int) -> int:
        """How many grant waves the map phase needs (diagnostics)."""
        total = sum(self.map_pool(node).capacity for node in self.nodes)
        return -(-num_maps // total)


def create_runtime(
    name: str,
    sim: Simulator,
    nodes: List[SimNode],
    jobconf: JobConf,
    costs: CostModel,
) -> Runtime:
    """Instantiate the runtime serving ``JobConf.version`` ``name``.

    This is how the drivers select a framework generation — by the
    version string, not by branching on classes.
    """
    # The runtimes live in sibling modules that import this one.
    from repro.hadoop.jobtracker import JobTrackerScheduler
    from repro.hadoop.yarn import YarnScheduler

    classes: Dict[str, Type[Runtime]] = {
        MRV1: JobTrackerScheduler, YARN: YarnScheduler}
    try:
        cls = classes[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime {name!r}; known: {sorted(classes)}"
        ) from None
    return cls(sim, nodes, jobconf, costs)


def attempt_fails(jobconf: JobConf, seed: int, kind: str, task_id: int,
                  attempt: int) -> bool:
    """Seeded per-(task, attempt) failure coin (order-independent)."""
    if jobconf.task_failure_probability <= 0.0:
        return False
    import random

    key = (seed * 1_000_003 + task_id * 101 + attempt * 7
           + (0 if kind == "map" else 499_979))
    return random.Random(key).random() < jobconf.task_failure_probability


class JobExecution:
    """One job's task lifecycle on a :class:`Runtime`.

    Owns the wave scheduling (grant acquisition per attempt), failure
    retries, speculative execution, slowstart, and completion
    bookkeeping that used to be duplicated across the single-job and
    concurrent-job drivers. Construct it with the shared world objects,
    then ``yield execution.start()`` (or ``run_until_event`` it) and
    read the completion state off the instance.

    ``placement_offset`` shifts the round-robin placement — the
    concurrent-job driver staggers jobs so they do not all pile onto
    the same first node.
    """

    def __init__(
        self,
        sim: Simulator,
        runtime: Runtime,
        config: "BenchmarkConfig",
        jobconf: JobConf,
        costs: CostModel,
        fabric: "NetworkFabric",
        transport: "TransportModel",
        matrix: "ShuffleMatrix",  # noqa: F821 - repro.core.matrix
        events: Optional[JobEventLog] = None,
        placement_offset: int = 0,
        label: str = "",
        faults: Optional["FaultInjector"] = None,
    ):
        self.sim = sim
        self.runtime = runtime
        self.config = config
        self.jobconf = jobconf
        self.costs = costs
        self.fabric = fabric
        self.transport = transport
        self.matrix = matrix
        self.events = events if events is not None else JobEventLog()
        self.placement_offset = placement_offset
        #: Lane prefix in trace output ("" for single jobs, "job2:"...).
        self.label = label
        #: Fault injection (``None`` on healthy runs — every fault hook
        #: below is guarded so the no-plan path is bit-identical).
        self.faults = faults
        self.registry = MapOutputRegistry(sim, config.num_maps)

        self.slowstart_target = max(
            0, int(round(jobconf.reduce_slowstart * config.num_maps))
        )
        self.slowstart_fired = sim.event(name=f"{label}slowstart")
        if self.slowstart_target == 0:
            self.slowstart_fired.succeed()
            self.events.record(sim.now, JobEventLog.SLOWSTART,
                               "0 maps required")

        # -- completion bookkeeping --
        self.winning_map: Dict[int, MapTask] = {}
        self.reduce_stats_by_id: Dict[int, ReduceTask] = {}
        self.first_reduce_start: Optional[float] = None
        self._running_since: Dict[int, float] = {}
        self._running_attempt: Dict[int, "Process"] = {}
        self._completed_durations: List[float] = []
        self._speculated: Set[int] = set()

    # -- map lifecycle ----------------------------------------------------

    def _make_map_task(self, map_id: int, node: SimNode) -> MapTask:
        return MapTask(
            map_id=map_id,
            node=node,
            segment_bytes=self.matrix.bytes[map_id],
            segment_records=self.matrix.records[map_id],
            jobconf=self.jobconf,
            costs=self.costs,
            start_extra=self.runtime.task_start_extra,
        )

    def _register_map(self, map_id: int, task: MapTask) -> None:
        sim = self.sim
        if map_id in self.winning_map:
            return
        self.winning_map[map_id] = task
        self.registry.register(task.output)
        self.events.record(sim.now, JobEventLog.MAP_FINISH, f"map{map_id}")
        self._completed_durations.append(task.stats.duration)
        loser = self._running_attempt.pop(map_id, None)
        if loser is not None and loser.is_alive:
            loser.kill()
        if (len(self.winning_map) >= self.slowstart_target
                and not self.slowstart_fired.triggered):
            self.slowstart_fired.succeed()
            self.events.record(sim.now, JobEventLog.SLOWSTART,
                               f"{self.slowstart_target} maps done")
            tracer = sim.tracer
            if tracer.enabled:
                tracer.instant("slowstart", CAT_JOB, "job",
                               f"{self.label}job",
                               maps_done=len(self.winning_map))

    def _run_map(self, map_id: int, node: SimNode, first_attempt: int = 0,
                 speculative: bool = False):
        sim = self.sim
        runtime = self.runtime
        jobconf = self.jobconf
        faults = self.faults
        lane = f"{self.label}map{map_id}"
        attempt = first_attempt
        while attempt < jobconf.max_task_attempts:
            if map_id in self.winning_map:
                return
            if faults is not None and faults.node_dead(node.name):
                node = faults.reroute(runtime.nodes,
                                      map_id + self.placement_offset)
            tracer = sim.tracer
            wait = (tracer.begin("grant-wait", CAT_SCHED, node.name, lane,
                                 attempt=attempt)
                    if tracer.enabled else None)
            grant = runtime.acquire_map(node)
            if faults is not None and faults.may_crash(node.name):
                # Wait for the grant OR the node's crash, whichever
                # happens first: a crash drains the pool (queued
                # requests withdraw and reschedule elsewhere; no
                # attempt is burned).
                yield AnyOf(sim, [grant, faults.crash_event(node.name)])
                if not grant.triggered:
                    runtime.map_pool(node).cancel(grant)
                    continue
                if faults.node_dead(node.name):
                    # Granted in the same instant the node died.
                    runtime.release_map(node)
                    continue
            else:
                yield grant
            if wait is not None:
                wait.end()
            if map_id in self.winning_map:
                runtime.release_map(node)
                return
            yield sim.timeout(self.costs.heartbeat_interval * 0.5)
            if faults is not None and faults.node_dead(node.name):
                runtime.release_map(node)
                continue
            self.events.record(sim.now, JobEventLog.MAP_START,
                               f"map{map_id} attempt{attempt}")
            task = self._make_map_task(map_id, node)
            self._running_since.setdefault(map_id, sim.now)
            attempt_started = sim.now
            task_proc = sim.process(task.run(),
                                    name=f"{self.label}map{map_id}.{attempt}")
            if map_id not in self._running_attempt:
                self._running_attempt[map_id] = task_proc
            if faults is not None:
                faults.track_attempt(node.name, task_proc, "map", map_id,
                                     task.total_bytes, self.placement_offset)
            try:
                yield task_proc
            finally:
                runtime.release_map(node)
                if faults is not None:
                    faults.untrack_attempt(node.name, task_proc)
            if task_proc.value is None:
                if faults is not None and faults.was_crash_killed(task_proc):
                    self.events.record(
                        sim.now, JobEventLog.TASK_FAILED,
                        f"map{map_id} attempt{attempt} node crashed")
                    tracer = sim.tracer
                    if tracer.enabled:
                        tracer.instant("task-failed", CAT_SCHED, node.name,
                                       lane, attempt=attempt, crash=True)
                    if self._running_attempt.get(map_id) is task_proc:
                        self._running_attempt.pop(map_id, None)
                    if speculative:
                        return  # the original attempt is still running
                    attempt += 1
                    continue
                return  # killed: a speculative sibling won
            injected = False
            failed = attempt_fails(jobconf, self.config.seed, "map", map_id,
                                   attempt)
            if not failed and faults is not None:
                failed = injected = faults.attempt_fails(
                    "map", map_id, attempt, self.placement_offset)
            if failed:
                self.events.record(sim.now, JobEventLog.TASK_FAILED,
                                   f"map{map_id} attempt{attempt} lost output")
                tracer = sim.tracer
                if tracer.enabled:
                    tracer.instant("task-failed", CAT_SCHED, node.name, lane,
                                   attempt=attempt)
                # _running_since is intentionally kept: speculation judges
                # elapsed time since the FIRST attempt, so repeatedly
                # failing tasks qualify as stragglers.
                self._running_attempt.pop(map_id, None)
                if faults is not None:
                    faults.note_failed_attempt(
                        "map", map_id, node.name, injected,
                        sim.now - attempt_started, task.total_bytes)
                attempt += 1
                continue
            won = map_id not in self.winning_map
            self._register_map(map_id, task)
            if faults is not None and won:
                faults.task_finished("map", map_id, node.name,
                                     self.placement_offset)
                if speculative:
                    faults.note_speculative_win()
            return
        raise TaskFailedError(
            f"map {map_id} failed {jobconf.max_task_attempts} attempts"
        )

    def _speculation_watcher(self):
        sim = self.sim
        config = self.config
        while len(self.winning_map) < config.num_maps:
            yield sim.timeout(self.costs.heartbeat_interval)
            if len(self.winning_map) < SPECULATION_THRESHOLD * config.num_maps:
                continue
            if not self._completed_durations:
                continue
            mean_duration = (
                sum(self._completed_durations) / len(self._completed_durations)
            )
            for map_id in range(config.num_maps):
                if map_id in self.winning_map or map_id in self._speculated:
                    continue
                started = self._running_since.get(map_id)
                if started is None:
                    continue
                if sim.now - started > SPECULATION_SLOWDOWN * mean_duration:
                    self._speculated.add(map_id)
                    backup_node = self.runtime.map_node(
                        map_id + self.placement_offset + 1
                    )
                    self.events.record(
                        sim.now, JobEventLog.SPECULATIVE,
                        f"map{map_id} backup on {backup_node.name}")
                    tracer = sim.tracer
                    if tracer.enabled:
                        tracer.instant(
                            "speculative-backup", CAT_SCHED,
                            backup_node.name, f"{self.label}map{map_id}")
                    if self.faults is not None:
                        self.faults.note_speculative_launch()
                    self._speculative_procs.append(sim.process(
                        self._run_map(
                            map_id, backup_node,
                            first_attempt=self.jobconf.max_task_attempts - 1,
                            speculative=True),
                        name=f"{self.label}spec-map{map_id}",
                    ))

    # -- reduce lifecycle -------------------------------------------------

    def _run_reduce(self, reduce_id: int, node: SimNode):
        sim = self.sim
        runtime = self.runtime
        jobconf = self.jobconf
        faults = self.faults
        lane = f"{self.label}reduce{reduce_id}"
        yield self.slowstart_fired
        attempt = 0
        while attempt < jobconf.max_task_attempts:
            if faults is not None and faults.node_dead(node.name):
                node = faults.reroute(runtime.nodes,
                                      reduce_id + self.placement_offset)
            tracer = sim.tracer
            wait = (tracer.begin("grant-wait", CAT_SCHED, node.name, lane,
                                 attempt=attempt)
                    if tracer.enabled else None)
            grant = runtime.acquire_reduce(node)
            if faults is not None and faults.may_crash(node.name):
                yield AnyOf(sim, [grant, faults.crash_event(node.name)])
                if not grant.triggered:
                    runtime.reduce_pool(node).cancel(grant)
                    continue
                if faults.node_dead(node.name):
                    runtime.release_reduce(node)
                    continue
            else:
                yield grant
            if wait is not None:
                wait.end()
            if self.first_reduce_start is None:
                self.first_reduce_start = sim.now
            self.events.record(sim.now, JobEventLog.REDUCE_START,
                               f"reduce{reduce_id} attempt{attempt}")
            task = ReduceTask(
                reduce_id=reduce_id,
                node=node,
                registry=self.registry,
                fabric=self.fabric,
                transport=self.transport,
                jobconf=jobconf,
                costs=self.costs,
                start_extra=runtime.task_start_extra,
                faults=faults,
                fault_salt=self.placement_offset,
            )
            attempt_started = sim.now
            task_proc = sim.process(
                task.run(),
                name=f"{self.label}reduce{reduce_id}.{attempt}")
            if faults is not None:
                faults.track_attempt(
                    node.name, task_proc, "reduce", reduce_id,
                    task.fetched_so_far, self.placement_offset)
            try:
                yield task_proc
            finally:
                runtime.release_reduce(node)
                if faults is not None:
                    faults.untrack_attempt(node.name, task_proc)
            if task_proc.value is None:
                if faults is not None and faults.was_crash_killed(task_proc):
                    self.events.record(
                        sim.now, JobEventLog.TASK_FAILED,
                        f"reduce{reduce_id} attempt{attempt} node crashed")
                    tracer = sim.tracer
                    if tracer.enabled:
                        tracer.instant("task-failed", CAT_SCHED, node.name,
                                       lane, attempt=attempt, crash=True)
                    attempt += 1
                    continue
                return  # killed by the driver (job abandoned)
            injected = False
            failed = attempt_fails(jobconf, self.config.seed, "reduce",
                                   reduce_id, attempt)
            if not failed and faults is not None:
                failed = injected = faults.attempt_fails(
                    "reduce", reduce_id, attempt, self.placement_offset)
            if failed:
                self.events.record(sim.now, JobEventLog.TASK_FAILED,
                                   f"reduce{reduce_id} attempt{attempt}")
                tracer = sim.tracer
                if tracer.enabled:
                    tracer.instant("task-failed", CAT_SCHED, node.name, lane,
                                   attempt=attempt)
                if faults is not None:
                    faults.note_failed_attempt(
                        "reduce", reduce_id, node.name, injected,
                        sim.now - attempt_started,
                        task.stats.bytes_fetched)
                attempt += 1
                continue
            self.reduce_stats_by_id[reduce_id] = task
            self.events.record(sim.now, JobEventLog.REDUCE_FINISH,
                               f"reduce{reduce_id}")
            if faults is not None:
                faults.task_finished("reduce", reduce_id, node.name,
                                     self.placement_offset)
            return
        raise TaskFailedError(
            f"reduce {reduce_id} failed {jobconf.max_task_attempts} attempts"
        )

    # -- driving ----------------------------------------------------------

    def start(self) -> Event:
        """Spawn every task-lifecycle process; returns the completion
        event (an :class:`~repro.sim.events.AllOf` over all of them)."""
        sim = self.sim
        config = self.config
        offset = self.placement_offset
        map_procs = [
            sim.process(
                self._run_map(m, self.runtime.map_node(m + offset)),
                name=f"{self.label}sched-map{m}")
            for m in range(config.num_maps)
        ]
        self._speculative_procs: List["Process"] = []
        if self.jobconf.speculative_execution:
            sim.process(self._speculation_watcher(),
                        name=f"{self.label}speculation-watcher")
        reduce_procs = [
            sim.process(
                self._run_reduce(r, self.runtime.reduce_node(r + offset)),
                name=f"{self.label}sched-reduce{r}")
            for r in range(config.num_reduces)
        ]
        return AllOf(sim, map_procs + reduce_procs)

    # -- completion accessors ---------------------------------------------

    @property
    def map_phase_end(self) -> float:
        return max(t.stats.finished_at for t in self.winning_map.values())

    def map_stats(self) -> List["MapTaskStats"]:  # noqa: F821
        return [self.winning_map[m].stats
                for m in range(self.config.num_maps)]

    def reduce_stats(self) -> List["ReduceTaskStats"]:  # noqa: F821
        return [self.reduce_stats_by_id[r].stats
                for r in range(self.config.num_reduces)]
