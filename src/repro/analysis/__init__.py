"""Result analysis: statistics, tables, exports, and the Experiment
Book generator (:mod:`repro.analysis.book`)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.book": ("build_book", "git_describe"),
    "repro.analysis.charts": ("bar_chart", "line_chart", "sweep_chart"),
    "repro.analysis.export": ("chrome_trace_json", "parse_csv_floats",
                              "results_to_csv", "sweep_to_csv",
                              "trace_to_chrome", "write_chrome_trace",
                              "write_csv"),
    "repro.analysis.stats": ("geometric_mean", "improvement_pct", "mean",
                             "median", "percentile", "speedup"),
    "repro.analysis.tables": ("format_cell", "format_table"),
})

__all__ = [
    "bar_chart",
    "build_book",
    "chrome_trace_json",
    "git_describe",
    "format_cell",
    "line_chart",
    "sweep_chart",
    "format_table",
    "geometric_mean",
    "improvement_pct",
    "mean",
    "median",
    "parse_csv_floats",
    "percentile",
    "results_to_csv",
    "speedup",
    "sweep_to_csv",
    "trace_to_chrome",
    "write_chrome_trace",
    "write_csv",
]
