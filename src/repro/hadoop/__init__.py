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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hadoop.autotune": ("TuningResult", "grid_search"),
    "repro.hadoop.cluster": ("ClusterSpec", "NodeSpec", "STAMPEDE_NODE",
                             "WESTMERE_NODE", "cluster_a", "cluster_b"),
    "repro.hadoop.costmodel": ("DEFAULT_COST_MODEL", "CostModel"),
    "repro.hadoop.counters": ("counters_dict", "format_counters",
                              "job_counters"),
    "repro.hadoop.events_log": ("JobEvent", "JobEventLog"),
    "repro.hadoop.history": ("history_json", "job_history",
                             "render_timeline"),
    "repro.hadoop.job": ("DEFAULT_JOB_CONF", "JobConf", "MRV1", "YARN"),
    "repro.hadoop.jobtracker": ("JobTrackerScheduler",),
    "repro.hadoop.maptask": ("MapOutput", "MapTask", "MapTaskStats"),
    "repro.hadoop.multijob": ("ConcurrentJobResult", "JobRequest",
                              "run_concurrent_jobs"),
    "repro.hadoop.node": ("SimNode", "StorageService"),
    "repro.hadoop.rdma": ("mroib_transport", "overlap_only_transport",
                          "zero_copy_only_transport"),
    "repro.hadoop.reducetask": ("ReduceTask", "ReduceTaskStats"),
    "repro.hadoop.result": ("SimJobResult",),
    "repro.hadoop.runtime": ("JobExecution", "Runtime", "create_runtime"),
    "repro.hadoop.shuffle": ("MapOutputRegistry", "ReducerShuffle",
                             "ShuffleStats"),
    "repro.hadoop.simulation": ("JOB_OVERHEAD", "TaskFailedError",
                                "run_simulated_job"),
    "repro.hadoop.yarn": ("YarnScheduler",),
})

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
