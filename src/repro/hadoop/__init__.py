"""Simulated Hadoop MapReduce framework (the paper's substrate).

The paper measures Apache Hadoop 1.2.1 (MRv1) and 2.x (YARN), stock
and RDMA-enhanced (MRoIB), on two physical clusters. This subpackage
substitutes a discrete-event model of those systems:

* :mod:`repro.hadoop.cluster` — testbed hardware specs (Cluster A/B).
* :mod:`repro.hadoop.costmodel` — calibrated per-record/byte CPU costs.
* :mod:`repro.hadoop.job` — JobConf (io.sort.mb, slowstart, copies...).
* :mod:`repro.hadoop.node` — slave runtime: busy cores, page-cache
  aware storage.
* :mod:`repro.hadoop.maptask` / :mod:`repro.hadoop.shuffle` /
  :mod:`repro.hadoop.reducetask` — the task pipeline.
* :mod:`repro.hadoop.runtime` — the shared :class:`Runtime` protocol
  (task lifecycle, waves, speculation) and :func:`create_runtime`.
* :mod:`repro.hadoop.jobtracker` / :mod:`repro.hadoop.yarn` — MRv1
  slots vs YARN containers, as thin :class:`Runtime` policies.
* :mod:`repro.hadoop.rdma` — the MRoIB case-study transport + ablations.
* :mod:`repro.hadoop.simulation` — :func:`run_simulated_job`.
"""

from repro.hadoop.cluster import (
    ClusterSpec,
    NodeSpec,
    STAMPEDE_NODE,
    WESTMERE_NODE,
    cluster_a,
    cluster_b,
)
from repro.hadoop.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.hadoop.counters import counters_dict, format_counters, job_counters
from repro.hadoop.events_log import JobEvent, JobEventLog
from repro.hadoop.history import history_json, job_history, render_timeline
from repro.hadoop.job import DEFAULT_JOB_CONF, JobConf, MRV1, YARN
from repro.hadoop.maptask import MapOutput, MapTask, MapTaskStats
from repro.hadoop.node import SimNode, StorageService
from repro.hadoop.reducetask import ReduceTask, ReduceTaskStats
from repro.hadoop.result import SimJobResult
from repro.hadoop.rdma import (
    mroib_transport,
    overlap_only_transport,
    zero_copy_only_transport,
)
from repro.hadoop.shuffle import MapOutputRegistry, ReducerShuffle, ShuffleStats
from repro.hadoop.autotune import TuningResult, grid_search
from repro.hadoop.simulation import JOB_OVERHEAD, TaskFailedError, run_simulated_job
from repro.hadoop.multijob import (
    ConcurrentJobResult,
    JobRequest,
    run_concurrent_jobs,
)
from repro.hadoop.runtime import JobExecution, Runtime, create_runtime
from repro.hadoop.jobtracker import JobTrackerScheduler
from repro.hadoop.yarn import YarnScheduler

__all__ = [
    "ClusterSpec",
    "ConcurrentJobResult",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_JOB_CONF",
    "JOB_OVERHEAD",
    "JobConf",
    "JobEvent",
    "JobEventLog",
    "JobExecution",
    "JobRequest",
    "JobTrackerScheduler",
    "MRV1",
    "MapOutput",
    "MapOutputRegistry",
    "MapTask",
    "MapTaskStats",
    "NodeSpec",
    "ReduceTask",
    "ReduceTaskStats",
    "ReducerShuffle",
    "Runtime",
    "STAMPEDE_NODE",
    "ShuffleStats",
    "SimJobResult",
    "SimNode",
    "StorageService",
    "TaskFailedError",
    "TuningResult",
    "WESTMERE_NODE",
    "YARN",
    "YarnScheduler",
    "cluster_a",
    "cluster_b",
    "counters_dict",
    "create_runtime",
    "format_counters",
    "grid_search",
    "history_json",
    "job_counters",
    "job_history",
    "mroib_transport",
    "overlap_only_transport",
    "render_timeline",
    "run_concurrent_jobs",
    "run_simulated_job",
    "zero_copy_only_transport",
]
