"""Concurrent jobs: multi-tenant interference on one simulated cluster.

The paper measures one job at a time; production clusters run many.
This extension submits several micro-benchmark jobs to a *shared*
simulated world — same TaskTracker slots (or YARN containers), same
NICs, same disks — and reports each job's latency, so the suite can
quantify shuffle interference ("how much slower is my job when a
skewed neighbour is shuffling?").

Each job drives the same :class:`~repro.hadoop.runtime.JobExecution`
lifecycle engine as the dedicated driver (wave scheduling, failure
retries, speculation, slowstart), with its round-robin placement offset
by the job index so batches do not pile onto the same first node. The
runtime (MRv1 slots vs YARN containers) is selected by name from the
:mod:`repro.hadoop.runtime` registry. The shared runtime's
``job_started``/``job_finished`` hooks are *not* invoked per job: the
batch models one long-lived tenant framework, not per-job AppMasters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import BenchmarkConfig
from repro.core.matrix import compute_shuffle_matrix
from repro.faults import FaultInjector, FaultPlan, ResilienceReport
from repro.hadoop.cluster import ClusterSpec
from repro.hadoop.costmodel import CostModel
from repro.hadoop.events_log import JobEventLog
from repro.hadoop.job import JobConf
from repro.hadoop.runtime import JobExecution
from repro.hadoop.simulation import JOB_OVERHEAD, Testbed, build_testbed
from repro.net.interconnect import get_interconnect
from repro.net.transport import TransportModel, transport_for
from repro.sim.events import AllOf
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class JobRequest:
    """One job submission: a config plus its arrival time."""

    config: BenchmarkConfig
    submit_at: float = 0.0

    def __post_init__(self) -> None:
        if self.submit_at < 0:
            raise ValueError(f"submit_at must be >= 0, got {self.submit_at}")


@dataclass
class ConcurrentJobResult:
    """What one job of a concurrent batch measured."""

    config: BenchmarkConfig
    submit_at: float
    started_at: float
    finished_at: float
    #: This job's lifecycle event log (slowstart, task starts/finishes).
    events: JobEventLog = field(default_factory=JobEventLog)
    #: The batch's shared fault/resilience report (``None`` on healthy
    #: runs; the same object on every job of one batch — faults are
    #: cluster-wide, not per-job).
    resilience: Optional[ResilienceReport] = None

    @property
    def execution_time(self) -> float:
        """Wall time from submission to completion (incl. overhead)."""
        return self.finished_at - self.submit_at + JOB_OVERHEAD

    @property
    def queueing_delay(self) -> float:
        return self.started_at - self.submit_at


def run_concurrent_jobs(
    requests: List[JobRequest],
    cluster: Optional[ClusterSpec] = None,
    jobconf: Optional[JobConf] = None,
    cost_model: Optional[CostModel] = None,
    tracer: Optional[Tracer] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> List[ConcurrentJobResult]:
    """Run several jobs on one shared cluster; returns per-job results.

    All jobs must name the same network (they share one fabric). Jobs
    contend for slots/containers, NIC bandwidth, and disks; nothing is
    partitioned between them — pure FIFO free-for-all, like a default
    Hadoop scheduler. Pass a :class:`~repro.sim.trace.Tracer` to record
    the batch's structured phase trace (lanes are prefixed ``job0:``,
    ``job1:``, ... per job).
    """
    if not requests:
        raise ValueError("run_concurrent_jobs needs at least one request")
    interconnects = {get_interconnect(r.config.network).name for r in requests}
    if len(interconnects) > 1:
        raise ValueError(
            f"concurrent jobs must share one network, got {sorted(interconnects)}"
        )
    interconnect = get_interconnect(requests[0].config.network)
    transport = transport_for(interconnect)
    bed = build_testbed(interconnect, cluster, jobconf, cost_model, tracer)
    sim = bed.sim

    # One injector serves the whole batch: node crashes and link faults
    # hit every tenant; the per-job placement offset salts the failure
    # coins so jobs fail independently.
    faults = bed.inject(fault_plan)

    results: List[ConcurrentJobResult] = []
    job_procs = []

    for job_index, request in enumerate(requests):
        result = ConcurrentJobResult(
            config=request.config,
            submit_at=request.submit_at,
            started_at=0.0,
            finished_at=0.0,
            resilience=faults.report if faults is not None else None,
        )
        results.append(result)
        job_procs.append(
            sim.process(
                _run_one_job(bed, transport, request, result, job_index,
                             faults),
                name=f"job{job_index}",
            )
        )

    sim.run_until_event(AllOf(sim, job_procs))
    return results


def _run_one_job(bed: Testbed, transport: TransportModel,
                 request: JobRequest, result: ConcurrentJobResult,
                 job_index: int, faults: Optional[FaultInjector]):
    """One job's orchestration inside the shared world."""
    sim = bed.sim
    config = request.config
    if request.submit_at > 0:
        yield sim.timeout(request.submit_at)
    result.started_at = sim.now

    execution = JobExecution(
        sim=sim,
        runtime=bed.runtime,
        config=config,
        jobconf=bed.jobconf,
        costs=bed.costs,
        fabric=bed.fabric,
        transport=transport,
        matrix=compute_shuffle_matrix(config),
        events=result.events,
        placement_offset=job_index,
        label=f"job{job_index}:",
        faults=faults,
    )
    yield execution.start()
    result.finished_at = sim.now
