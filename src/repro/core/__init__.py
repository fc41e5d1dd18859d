"""The paper's contribution: the stand-alone MapReduce micro-benchmark suite.

Modules:

* :mod:`repro.core.config` — :class:`BenchmarkConfig`, all user knobs.
* :mod:`repro.core.formats` — NullInputFormat / NullOutputFormat.
* :mod:`repro.core.datagen` — deterministic in-memory pair generation.
* :mod:`repro.core.partitioners` — MR-AVG / MR-RAND / MR-SKEW patterns.
* :mod:`repro.core.matrix` — shuffle matrices (who sends what to whom).
* :mod:`repro.core.benchmarks` — the named micro-benchmarks.
* :mod:`repro.core.suite` — run benchmarks on a simulated cluster.
* :mod:`repro.core.report` — paper-style result reports.
* :mod:`repro.core.cli` — ``mr-microbench`` command-line driver.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.benchmarks": ("ALL_BENCHMARKS", "MR_AVG", "MR_RAND",
                              "MR_SKEW", "MicroBenchmark",
                              "get_benchmark"),
    "repro.core.config": ("BenchmarkConfig", "PATTERN_AVG", "PATTERN_RAND",
                          "PATTERN_SKEW", "PATTERN_SKEW_SPLIT",
                          "PATTERN_ZIPF", "PATTERNS",
                          "SUPPORTED_DATA_TYPES"),
    "repro.core.datagen": ("KeyValueGenerator",),
    "repro.core.formats": ("DummyRecordReader", "DummySplit",
                           "NullInputFormat", "NullOutputFormat",
                           "NullRecordWriter"),
    "repro.core.matrix": ("ShuffleMatrix", "clear_matrix_cache",
                          "compute_shuffle_matrix"),
    "repro.core.partitioners": ("AveragePartitioner", "HashPartitioner",
                                "Partitioner", "RandomPartitioner",
                                "SkewedPartitioner", "distribution_stats",
                                "make_partitioner"),
    "repro.core.report": ("render_phase_table", "render_report"),
    "repro.core.suite": ("MicroBenchmarkSuite", "SweepResult", "SweepRow",
                         "clear_result_cache", "result_cache_stats"),
    "repro.core.validate": ("ShapeCheck", "ValidationReport",
                            "validate_headline_shapes"),
    "repro.core.workloads": ("WORKLOADS", "WorkloadProfile",
                             "get_workload"),
})

__all__ = [
    "ALL_BENCHMARKS",
    "AveragePartitioner",
    "BenchmarkConfig",
    "DummyRecordReader",
    "DummySplit",
    "HashPartitioner",
    "KeyValueGenerator",
    "MR_AVG",
    "MR_RAND",
    "MR_SKEW",
    "MicroBenchmark",
    "MicroBenchmarkSuite",
    "NullInputFormat",
    "NullOutputFormat",
    "NullRecordWriter",
    "PATTERNS",
    "PATTERN_AVG",
    "PATTERN_RAND",
    "PATTERN_SKEW",
    "PATTERN_SKEW_SPLIT",
    "PATTERN_ZIPF",
    "Partitioner",
    "RandomPartitioner",
    "ShapeCheck",
    "ShuffleMatrix",
    "SkewedPartitioner",
    "SweepResult",
    "SweepRow",
    "ValidationReport",
    "WORKLOADS",
    "WorkloadProfile",
    "clear_matrix_cache",
    "clear_result_cache",
    "compute_shuffle_matrix",
    "distribution_stats",
    "get_benchmark",
    "get_workload",
    "SUPPORTED_DATA_TYPES",
    "make_partitioner",
    "render_phase_table",
    "render_report",
    "result_cache_stats",
    "validate_headline_shapes",
]
