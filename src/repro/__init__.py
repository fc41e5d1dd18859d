"""A micro-benchmark suite for evaluating Hadoop MapReduce on
high-performance networks — full-system Python reproduction.

Reproduces Shankar, Lu, Wasi-ur-Rahman, Islam, Panda, *"A
Micro-benchmark Suite for Evaluating Hadoop MapReduce on
High-Performance Networks"* (BPOE 2014): the stand-alone MapReduce
micro-benchmarks (MR-AVG / MR-RAND / MR-SKEW) plus every substrate they
run on, simulated — a discrete-event Hadoop MRv1/YARN framework, flow-
level network models for 1 GigE / 10 GigE / IPoIB QDR / IPoIB FDR /
RDMA, the Writable type system, and a functional local MapReduce engine
for semantic validation.

Quickstart::

    from repro import MicroBenchmarkSuite, cluster_a

    suite = MicroBenchmarkSuite(cluster=cluster_a(4))
    result = suite.run("MR-AVG", shuffle_gb=16, network="ipoib-qdr",
                       num_maps=16, num_reduces=8)
    print(f"job executed in {result.execution_time:.1f} simulated seconds")

Subpackages
-----------
:mod:`repro.core`
    The paper's contribution: benchmarks, partitioners, null formats,
    configuration, suite runner, reports, CLI.
:mod:`repro.hadoop`
    Simulated Hadoop MapReduce framework (MRv1 + YARN + MRoIB/RDMA).
:mod:`repro.net`
    Interconnect models and the max-min fair network fabric.
:mod:`repro.faults`
    Declarative, seeded fault injection and resilience reporting.
:mod:`repro.datatypes`
    Hadoop Writable types and IFile serialization.
:mod:`repro.engine`
    Functional (really-executing) local MapReduce engine.
:mod:`repro.sim`
    Discrete-event simulation kernel.
:mod:`repro.analysis`
    Statistics, table rendering, and the Experiment Book generator.
:mod:`repro.store`
    Persistent, content-addressed result store (warm-start caching).
:mod:`repro.campaign`
    Declarative benchmark campaigns over the store.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaign": ("Campaign", "load_campaign", "load_campaigns",
                       "run_campaign"),
    "repro.core.benchmarks": ("ALL_BENCHMARKS", "MR_AVG", "MR_RAND",
                              "MR_SKEW", "MicroBenchmark",
                              "get_benchmark"),
    "repro.core.config": ("BenchmarkConfig",),
    "repro.core.report": ("render_report",),
    "repro.core.suite": ("MicroBenchmarkSuite", "SweepResult", "SweepRow",
                         "clear_result_cache", "result_cache_stats"),
    "repro.faults": ("FaultInjector", "FaultPlan", "LinkFault", "NodeCrash",
                     "ResilienceReport", "SlowNode"),
    "repro.hadoop.cluster": ("ClusterSpec", "cluster_a", "cluster_b"),
    "repro.hadoop.job": ("JobConf",),
    "repro.hadoop.result": ("SimJobResult",),
    "repro.hadoop.simulation": ("run_simulated_job",),
    "repro.net.interconnect": ("INTERCONNECTS", "get_interconnect"),
    "repro.store": ("ResultStore", "StoredResult", "point_key"),
})

__version__ = "1.0.0"

__all__ = [
    "ALL_BENCHMARKS",
    "BenchmarkConfig",
    "ClusterSpec",
    "FaultInjector",
    "FaultPlan",
    "INTERCONNECTS",
    "JobConf",
    "LinkFault",
    "Campaign",
    "MR_AVG",
    "MR_RAND",
    "MR_SKEW",
    "MicroBenchmark",
    "MicroBenchmarkSuite",
    "NodeCrash",
    "ResilienceReport",
    "ResultStore",
    "SimJobResult",
    "SlowNode",
    "StoredResult",
    "SweepResult",
    "SweepRow",
    "clear_result_cache",
    "cluster_a",
    "cluster_b",
    "get_benchmark",
    "get_interconnect",
    "load_campaign",
    "load_campaigns",
    "point_key",
    "render_report",
    "result_cache_stats",
    "run_campaign",
    "run_simulated_job",
    "__version__",
]
