"""Shared helpers for the figure-regeneration benchmarks.

Every ``bench_fig*.py`` module regenerates one table/figure from the
paper's evaluation section: it sweeps the same parameters, prints the
series the figure plots, and (where the paper states numbers in prose)
asserts the reproduced *shape* — orderings and rough ratios. Absolute
seconds are not compared: the substrate is a simulator, not the 2014
testbeds (see EXPERIMENTS.md).

Results are also written to ``benchmarks/results/*.txt`` so the series
survive pytest's output capture.

The figure sweeps themselves live in ``benchmarks/campaigns/*.json``
as declarative :class:`~repro.campaign.Campaign` specs;
:func:`run_figure_campaign` executes them through the shared on-disk
result store at ``benchmarks/results/store`` (gitignored), so repeated
benchmark runs — and anything else pointed at that store, e.g.
``repro book`` — skip already-simulated points.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Sequence

import pytest

from repro import MicroBenchmarkSuite, cluster_a, cluster_b, JobConf
from repro.analysis import format_table, improvement_pct

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Allowed wall-clock slack vs a committed baseline in smoke mode.
SMOKE_FACTOR = float(os.environ.get("PERF_SMOKE_FACTOR", "2.0"))

#: Shipped campaign specs (the paper figures as data).
CAMPAIGN_DIR = pathlib.Path(__file__).parent / "campaigns"

#: Shared persistent result store for benchmark runs (regenerable;
#: gitignored). Delete it to force full re-simulation.
STORE_DIR = RESULTS_DIR / "store"

#: Worker processes for sweep execution (``BENCH_JOBS=4 pytest ...``).
#: Results are bit-identical regardless of the setting; the default of 1
#: keeps single-core CI runs free of process-pool overhead.
JOBS = max(1, int(os.environ.get("BENCH_JOBS", "1")))

#: Cluster A experiments (Figs. 2, 4, 5, 6, 7): 16 maps / 8 reduces on
#: 4 slaves, 1 KB key/value pairs, BytesWritable (Sect. 5.2).
CLUSTER_A_PARAMS = dict(num_maps=16, num_reduces=8,
                        key_size=512, value_size=512,
                        data_type="BytesWritable")

#: YARN experiments (Fig. 3): 32 maps / 16 reduces on 8 slaves.
YARN_PARAMS = dict(num_maps=32, num_reduces=16,
                   key_size=512, value_size=512,
                   data_type="BytesWritable")

#: Cluster A network set.
CLUSTER_A_NETWORKS = ("1GigE", "10GigE", "ipoib-qdr")

#: Shuffle-size sweep (GB) used for the job-time figures.
SHUFFLE_SIZES_GB = (4.0, 8.0, 16.0, 32.0)


def suite_cluster_a(slaves: int = 4, version: str = "mrv1") -> MicroBenchmarkSuite:
    return MicroBenchmarkSuite(cluster=cluster_a(slaves),
                               jobconf=JobConf(version=version))


def suite_cluster_b(slaves: int = 8) -> MicroBenchmarkSuite:
    return MicroBenchmarkSuite(cluster=cluster_b(slaves))


def run_figure_campaign(spec_file: str, name: str = None):
    """Run one shipped campaign spec through the shared bench store.

    Returns the :class:`~repro.campaign.CampaignResult`; points already
    in ``benchmarks/results/store`` are served from disk (0 simulations
    on warm re-runs — check with ``repro store stats``).
    """
    from repro.campaign import load_campaign, run_campaign

    campaign = load_campaign(CAMPAIGN_DIR / spec_file, name=name)
    return run_campaign(campaign, store=str(STORE_DIR), jobs=JOBS)


def record_texts(root) -> Dict[str, str]:
    """Key -> stored record text of every record under a store root."""
    from repro.store import ResultStore

    store = ResultStore(root)
    try:
        return dict(store._db().execute(
            "SELECT key, record FROM records ORDER BY key").fetchall())
    finally:
        store.close()


def record(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def improvement_summary(sweep, baseline: str) -> str:
    """Per-network mean improvement over ``baseline`` for a sweep."""
    lines = []
    for network in sweep.networks():
        if network == baseline:
            continue
        pct = sweep.improvement(baseline, network)
        lines.append(f"  {network:<22} vs {baseline}: {pct:+.1f}%")
    return "\n".join(lines)


def one_shot(benchmark, fn):
    """Run ``fn`` once under pytest-benchmark (simulations are
    deterministic, so repeated rounds add nothing)."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


def check_or_record(name: str, measured: dict,
                    baseline_path: pathlib.Path,
                    factor: float = None) -> None:
    """Guard one wall-clock measurement against its committed baseline.

    ``measured["seconds"]`` is the guarded value; other keys are
    informational and stored alongside it in ``baseline_path``.

    * ``PERF_BASELINE=1`` — rewrite the baseline entry and return.
    * ``PERF_SMOKE=1`` — assert no regression beyond ``factor`` (default
      :data:`SMOKE_FACTOR`) times the baseline. A bench whose baseline
      entry is missing (or lacks ``seconds``) *skips* with a pointer to
      the recording command instead of erroring, so new benches can
      land before their baselines.
    * Neither — measure-and-print only (safe on arbitrary machines).
    """
    baselines = (json.loads(baseline_path.read_text())
                 if baseline_path.exists() else {})
    if os.environ.get("PERF_BASELINE"):
        baselines[name] = measured
        baseline_path.write_text(json.dumps(baselines, indent=2,
                                            sort_keys=True) + "\n")
        return
    baseline = baselines.get(name)
    if not os.environ.get("PERF_SMOKE"):
        return
    if baseline is None or "seconds" not in baseline:
        pytest.skip(
            f"no committed baseline {name!r} in {baseline_path.name}; "
            f"run PERF_BASELINE=1 pytest {baseline_path.parent.name}/ "
            f"to record one")
    factor = factor if factor is not None else SMOKE_FACTOR
    limit = factor * baseline["seconds"]
    assert measured["seconds"] <= limit, (
        f"{name}: {measured['seconds']:.3f}s exceeds "
        f"{factor}x baseline ({baseline['seconds']:.3f}s)"
    )
