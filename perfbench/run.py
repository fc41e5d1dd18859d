"""The repository benchmark: one command per workload and mode.

    python3 perfbench/run.py --workload figures-cold --seed 20140901 \\
        --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``figures-cold``,
``trials-1000``, ``service-mix``, ``pool-fig3a``. Every run uses a
fresh store under ``perfbench/out/tmp``, cold in-process caches and the
default fsync setting. Stores are SQLite (``REPRO_STORE_BACKEND=sqlite``)
unless the environment names another backend.

``--trace 0`` measures the workload and prints the end-to-end metrics:

* ``setup_s``: run start to first timed operation, as the median of
  six fresh-interpreter import probes plus the median of the
  workload's own set-ups (temporary store, spec loading, seeding the
  service store and starting its server, spawning pool workers until
  they join);
* ``cold_s``: median seconds of one cold operation, one that must
  simulate (a figures pass, a 1000-point pass, a cold ``wait: true``
  query, a pooled Fig. 3(a) pass);
* ``warm_s``: median seconds of the same operation answered from the
  store (a warm query for service-mix);
* ``peak_rss_mb``: peak resident memory of the benchmark process.

The three times are in reference-host seconds: each wall time up to
5 s is multiplied by ``PROBE_REFERENCE_S`` over the host probe timed
just before it (``common.host_probe``, a fixed stdlib workload),
because a shared host's speed drifts by a third over minutes; a longer
sample (the figures-cold pass) is scaled by the median of the probes
taken during the run. The wall times print beside them and are saved
with every result. The command also prints each workload's own
wall-clock figures by name (``figures_cold_s``, ``campaign_cold_s``,
``service_qps``, ``warm_p99_ms``, ``failed_frac`` ...).

``--trace 1`` runs the same measurement, then one more pass of the
workload with span wrappers installed (``spans.py``), and prints every
per-layer metric, each layer's self time and share of the traced wall
time, and traced minus untraced for every end-to-end metric. The spans
go to ``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Every run also saves its metrics with a host
fingerprint under ``perfbench/out/results`` (``--results`` moves them);
``compare.py`` compares two such directories. A failed output check
makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from common import (
    DEFAULT_SEED,
    OUT_DIR,
    PROBE_REFERENCE_S,
    Recorder,
    median,
    peak_rss_mb,
    require_program,
    tail,
    time_import_probe,
)

#: End-to-end metrics (name, unit), as in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MB"))

#: Fresh-interpreter import probes per run, half before the workload
#: and half after it, so they do not all land in one slow spell.
IMPORT_PROBES = 6

WORKLOAD_NAMES = ("figures-cold", "trials-1000", "service-mix",
                  "pool-fig3a")


def measure(workload: str, seed: int, seconds: float, tracer=None,
            imports: Optional[Recorder] = None):
    """Run one workload phase; returns ``(recorder, notes, metrics)``.

    ``imports`` reuses another phase's import probes (the traced phase
    does not re-time a fresh interpreter).
    """
    from workloads import WORKLOADS

    rec = Recorder(workload, seed, seconds, tracer=tracer,
                   max_iterations=1 if tracer is not None else None)
    if imports is None:
        rec.probe()
        for _ in range(IMPORT_PROBES // 2):
            rec.add("import", time_import_probe())
    else:
        for name in ("import", "raw_import"):
            rec.samples[name] = list(imports.samples[name])
    try:
        notes = WORKLOADS[workload](rec)
        if imports is None:
            rec.probe()
            for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2):
                rec.add("import", time_import_probe())
    finally:
        rec.cleanup()
    return rec, notes, end_to_end(rec)


def end_to_end(rec: Recorder, prefix: str = "") -> Dict[str, float]:
    """The end-to-end metrics of a phase; ``prefix="raw_"`` gives the
    unscaled wall times."""
    def med(name: str) -> float:
        return median(rec.samples[prefix + name])

    return {
        "setup_s": med("import") + med("setup"),
        "cold_s": med("cold"),
        "warm_s": med("warm"),
        "peak_rss_mb": peak_rss_mb(),
    }


def named_figures(workload: str, rec: Recorder,
                  notes: dict) -> Dict[str, str]:
    """The workload's own wall-clock figures, by name."""
    cold, warm = rec.samples["raw_cold"], rec.samples["raw_warm"]
    out = {"failed_frac": f"{rec.failed / max(rec.attempted, 1):.4f} "
                          f"ratio ({rec.failed}/{rec.attempted})"}
    if workload == "figures-cold":
        out["figures_cold_s"] = f"{median(cold):.4f} s"
        out["figures_warm_s"] = (f"{median(warm):.4f} s (sum over specs "
                                 f"of each one's median re-read)")
        out["digest"] = notes["digest"]
    elif workload == "trials-1000":
        out["campaign_cold_s"] = (f"{median(cold):.4f} s "
                                  f"(median of {len(cold)})")
        out["campaign_warm_s"] = (f"{median(warm):.4f} s "
                                  f"(median of {len(warm)})")
    elif workload == "service-mix":
        out["service_qps"] = (f"{notes['requests'] / notes['loop_seconds']:.1f}"
                              f" req/s ({notes['requests']} requests)")
        out["warm_p50_ms"] = (f"{1000 * median(warm):.3f} ms "
                              f"(n={len(warm)})")
        pct = tail(warm)
        out["warm_p99_ms"] = (f"{1000 * pct[1]:.3f} ms at p{pct[0]:g} "
                              f"(n={len(warm)})" if pct
                              else f"n/a (n={len(warm)})")
        out["cold_p50_ms"] = (f"{1000 * median(cold):.3f} ms "
                              f"(n={len(cold)})")
    else:
        out["pool_campaign_s"] = (f"{median(cold):.4f} s "
                                  f"(median of {len(cold)})")
    out["host_probe_s"] = (f"{median(rec.samples['probe']):.4f} s median "
                           f"(reference {PROBE_REFERENCE_S} s)")
    return out


def save(results_dir: Path, payload: dict) -> dict:
    """Write one run's record with the host fingerprint; returns it."""
    from common import fingerprint

    results_dir.mkdir(parents=True, exist_ok=True)
    host = fingerprint()
    path = results_dir / (f"{payload['workload']}-seed{payload['seed']}-"
                          f"trace{payload['trace']}-"
                          f"{time.strftime('%Y%m%dT%H%M%S')}-"
                          f"{os.getpid()}.json")
    path.write_text(json.dumps(dict(payload, fingerprint=host), indent=1,
                               sort_keys=True) + "\n")
    return host


def traced_phase(args, rec: Recorder, metrics: Dict[str, float]):
    """One more pass with spans on; prints the per-layer report.

    Returns the traced phase's recorder and its per-layer metrics.
    """
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced, _notes, traced_e2e = measure(
            args.workload, args.seed, args.seconds, tracer=tracer,
            imports=rec)
    finally:
        tracer.uninstall()
    layers = spans.layer_metrics(tracer, traced)
    print(f"traced pass ({len(tracer.spans)} spans)")
    for name, unit in spans.PER_LAYER:
        print(f"  {name:<28} {layers[name]:>16.6f} {unit}")
    measured = tracer.measured()
    wall = sum(s[3] - s[2] for s in measured if s[1] == "bench.pass")
    print(f"layer self time (share of {wall:.4f} s traced wall; "
          f"threads overlap, so shares may sum past 100%)")
    for layer, seconds in sorted(spans.layer_self(measured).items(),
                                 key=lambda item: -item[1]):
        print(f"  {layer:<28} {seconds:>12.4f} s "
              f"{100 * seconds / wall:>7.1f}%")
    print("tracing overhead (traced - untraced)")
    for name, unit in END_TO_END:
        delta = traced_e2e[name] - metrics[name]
        print(f"  {name:<24} {delta:>+14.6f} {unit} "
              f"({100 * delta / metrics[name]:+.1f}%)")
    for problem in traced.problems:
        print(f"  CHECK FAILED (traced): {problem}")
    tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return traced, {name: {"value": layers[name], "unit": unit}
                    for name, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=OUT_DIR / "results")
    args = parser.parse_args(argv)
    require_program()
    from repro.store import BACKEND_ENV_VAR

    # Stores are SQLite unless the caller picks a backend: a filesystem
    # store creates one file per record, and on shared virtual disks that
    # made the same 1000-point pass swing 2-3x between runs. The
    # fingerprint records the backend.
    os.environ.setdefault(BACKEND_ENV_VAR, "sqlite")

    rec, notes, metrics = measure(args.workload, args.seed, args.seconds)
    wall = end_to_end(rec, prefix="raw_")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in END_TO_END:
        print(f"  {name:<24} {metrics[name]:>14.6f} {unit}"
              + (f"   (wall {wall[name]:.6f} s)" if unit == "s" else ""))
    for name, text in named_figures(args.workload, rec, notes).items():
        print(f"  {name:<24} {text}")
    for problem in rec.problems:
        print(f"  CHECK FAILED: {problem}")
    attempted, failed = rec.attempted, rec.failed
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in END_TO_END}

    if args.trace:
        traced, reported = traced_phase(args, rec, metrics)
        attempted += traced.attempted
        failed += traced.failed

    correct = failed == 0
    host = save(args.results, {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "metrics": reported,
        "correct": correct, "attempted": attempted, "failed": failed,
        "samples": dict(rec.samples)})
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
