"""The simulated-job driver: wire everything together and run.

:func:`run_simulated_job` is the package's main performance entry
point: given a :class:`~repro.core.config.BenchmarkConfig` (which names
the network), a cluster, and a :class:`~repro.hadoop.job.JobConf`, it
builds the discrete-event world (fabric, nodes, runtime), drives the
job's task lifecycle through a
:class:`~repro.hadoop.runtime.JobExecution`, and returns a
:class:`~repro.hadoop.result.SimJobResult` whose ``execution_time`` is
the paper's reported metric.

The framework generation (MRv1 slots vs YARN containers) is selected
*by name* through :func:`~repro.hadoop.runtime.create_runtime` — this
module never branches on scheduler classes. The lifecycle itself (waves,
failure injection, speculative execution, slowstart) lives in
:class:`~repro.hadoop.runtime.JobExecution`.

Pass a :class:`~repro.sim.trace.Tracer` to record the structured
phase trace (task spans, shuffle sub-phases, fabric flows); tracing is
guaranteed not to perturb the simulation — traced and untraced runs
produce bit-identical times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import BenchmarkConfig
from repro.core.matrix import ShuffleMatrix, compute_shuffle_matrix
from repro.faults import FaultInjector, FaultPlan
from repro.hadoop.cluster import ClusterSpec, cluster_a
from repro.hadoop.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.hadoop.events_log import JobEventLog
from repro.hadoop.job import DEFAULT_JOB_CONF, JobConf
from repro.hadoop.node import SimNode
from repro.hadoop.result import SimJobResult
from repro.hadoop.runtime import (  # noqa: F401 - TaskFailedError re-exported
    JobExecution,
    Runtime,
    TaskFailedError,
    create_runtime,
)
from repro.net.fabric import NetworkFabric
from repro.net.interconnect import InterconnectSpec, get_interconnect
from repro.net.transport import TransportModel, transport_for
from repro.sim.kernel import Simulator
from repro.sim.monitor import ResourceMonitor
from repro.sim.trace import CAT_JOB, Tracer

#: Fixed job bring-up/teardown overhead (submission, setup/cleanup
#: tasks) added to the reported execution time, seconds.
JOB_OVERHEAD = 4.0


@dataclass
class Testbed:
    """One simulated cluster, as :func:`build_testbed` wires it; the
    dedicated and the concurrent job drivers both run on one."""

    cluster: ClusterSpec
    jobconf: JobConf
    #: The cost model scaled to the cluster's clock.
    costs: CostModel
    sim: Simulator
    fabric: NetworkFabric
    nodes: List[SimNode]
    runtime: Runtime

    def inject(self, plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
        """Install ``plan``'s faults; None (nothing installed) when the
        plan is absent or a no-op, which keeps a healthy run
        bit-identical to one without fault injection."""
        if plan is None or plan.is_noop():
            return None
        faults = FaultInjector(plan, self.sim, self.fabric, self.nodes)
        faults.install()
        return faults


def build_testbed(
    interconnect: InterconnectSpec,
    cluster: Optional[ClusterSpec] = None,
    jobconf: Optional[JobConf] = None,
    cost_model: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
) -> Testbed:
    """Build the simulator, fabric, slave nodes and runtime, in that order.

    Defaults: Cluster A with 4 slaves, Hadoop 1.2.1 (MRv1) and
    :data:`DEFAULT_COST_MODEL`. A ``tracer`` is bound to the simulator.
    """
    cluster = cluster if cluster is not None else cluster_a()
    jobconf = jobconf if jobconf is not None else DEFAULT_JOB_CONF
    base_costs = cost_model if cost_model is not None else DEFAULT_COST_MODEL
    costs = base_costs.scaled(cluster.node.clock_ghz)
    sim = Simulator()
    if tracer is not None:
        sim.tracer = tracer.bind(sim)
    uplink = (cluster.rack_uplink_bandwidth(interconnect.sustained_bandwidth)
              if cluster.racks > 1 else None)
    fabric = NetworkFabric(sim, interconnect, rack_uplink_bandwidth=uplink)
    nodes = [
        SimNode(sim, name, cluster.node, fabric, rack=cluster.rack_of(i))
        for i, name in enumerate(cluster.slave_names())
    ]
    runtime = create_runtime(jobconf.version, sim, nodes, jobconf, costs)
    return Testbed(cluster, jobconf, costs, sim, fabric, nodes, runtime)


def run_simulated_job(
    config: BenchmarkConfig,
    cluster: Optional[ClusterSpec] = None,
    jobconf: Optional[JobConf] = None,
    cost_model: Optional[CostModel] = None,
    transport: Optional[TransportModel] = None,
    monitor_interval: Optional[float] = None,
    matrix: Optional[ShuffleMatrix] = None,
    tracer: Optional[Tracer] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SimJobResult:
    """Simulate one micro-benchmark job end to end.

    Parameters
    ----------
    config:
        The benchmark parameters (pattern, sizes, task counts, network).
    cluster:
        Hardware; defaults to the paper's Cluster A with 4 slaves.
    jobconf:
        Framework knobs; defaults to Hadoop 1.2.1 defaults (MRv1).
    cost_model:
        CPU cost calibration; defaults to :data:`DEFAULT_COST_MODEL`.
    transport:
        Shuffle transport override (used by the RDMA ablations);
        defaults to the transport the interconnect implies.
    monitor_interval:
        If set, sample slave0's CPU % and NIC MB/s every that many
        simulated seconds (the Fig. 7 traces).
    matrix:
        Pre-computed shuffle matrix (reused across a sweep); defaults
        to computing it from ``config``.
    tracer:
        If set, record the structured phase trace onto it (returned as
        ``result.trace``); does not change simulated times.
    fault_plan:
        If set (and not a no-op), inject the plan's faults — task
        failures, node crashes, stragglers, link degradation — and
        attach the resulting :class:`~repro.faults.ResilienceReport`
        as ``result.resilience``. ``None`` (or an empty plan) is
        bit-identical to the pre-fault-injection code.
    """
    interconnect = get_interconnect(config.network)
    transport = transport if transport is not None else transport_for(interconnect)
    if matrix is None:
        matrix = compute_shuffle_matrix(config)
    elif matrix.config != config:
        raise ValueError("supplied matrix was computed for a different config")

    bed = build_testbed(interconnect, cluster, jobconf, cost_model, tracer)
    sim, runtime = bed.sim, bed.runtime
    runtime.job_started()
    faults = bed.inject(fault_plan)

    events = JobEventLog()

    monitor = None
    if monitor_interval is not None:
        monitor = ResourceMonitor(sim, interval=monitor_interval)
        slave0 = bed.nodes[0]
        monitor.register_gauge(
            "cpu_pct",
            lambda: 100.0 * slave0.total_cpu_level() / slave0.spec.cores,
        )
        monitor.register_rate("net_rx_mb_s", slave0.fabric_node.rx, scale=1e-6)
        monitor.register_rate("net_tx_mb_s", slave0.fabric_node.tx, scale=1e-6)
        monitor.register_rate(
            "disk_mb_s", slave0.storage.disk.bytes_served, scale=1e-6
        )
        monitor.install()

    execution = JobExecution(
        sim=sim,
        runtime=runtime,
        config=config,
        jobconf=bed.jobconf,
        costs=bed.costs,
        fabric=bed.fabric,
        transport=transport,
        matrix=matrix,
        events=events,
        faults=faults,
    )
    job_span = (sim.tracer.begin("job", CAT_JOB, "job", "job",
                                 framework=bed.jobconf.version,
                                 network=interconnect.name)
                if sim.tracer.enabled else None)
    job_done = execution.start()
    sim.run_until_event(job_done)
    runtime.job_finished()
    events.record(sim.now, JobEventLog.JOB_FINISH, "")
    if job_span is not None:
        job_span.end()
    if monitor is not None:
        monitor.stop()

    return SimJobResult(
        config=config,
        cluster=bed.cluster,
        jobconf=bed.jobconf,
        interconnect_name=interconnect.name,
        transport_name=transport.name,
        execution_time=sim.now + JOB_OVERHEAD,
        map_phase_end=execution.map_phase_end,
        first_reduce_start=execution.first_reduce_start or 0.0,
        map_stats=execution.map_stats(),
        reduce_stats=execution.reduce_stats(),
        matrix=matrix,
        events=events,
        monitor=monitor,
        trace=tracer,
        resilience=faults.report if faults is not None else None,
    )
