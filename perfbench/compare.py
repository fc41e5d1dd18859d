"""Summarise and compare saved benchmark results.

``run.py`` saves every run as a JSON record (metrics plus host
fingerprint) under ``perfbench/out/results``. This tool reads such
directories:

    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the metric's
        bound in BENCHMARK.json.

    python3 perfbench/compare.py diff BASE_DIR HEAD_DIR
        Per workload and end-to-end metric: both medians, the change and
        whether it is worse than the bound allows.

Results measured under different fingerprints (host, Python, numpy,
store backend or fsync setting) are not comparable: both commands
refuse them with exit code 2. Only the commit may differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def load(directory: Path) -> Dict[str, List[dict]]:
    """Untraced run records by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs[record["workload"]].append(record)
    return runs


def host(record: dict) -> Tuple:
    """The fingerprint fields that must match (everything but commit)."""
    fp = dict(record["fingerprint"])
    fp.pop("commit", None)
    return tuple(sorted(fp.items()))


def require_one_host(*groups: Dict[str, List[dict]]) -> None:
    hosts = {host(r) for runs in groups for rs in runs.values() for r in rs}
    if len(hosts) > 1:
        print("refusing to compare results from different fingerprints:",
              file=sys.stderr)
        for fp in sorted(hosts):
            print(f"  {dict(fp)}", file=sys.stderr)
        raise SystemExit(2)


def values(runs: List[dict], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs]


def spread(directory: Path) -> int:
    runs = load(directory)
    require_one_host(runs)
    worst = 0.0
    for workload, records in sorted(runs.items()):
        print(f"{workload} ({len(records)} runs)")
        for name, spec in BOUNDS.items():
            vals = values(records, name)
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / spec["bound"])
            print(f"  {name:<14} median {med:>12.6f} {spec['unit']:<3} "
                  f"q1 {q1:>12.6f} q3 {q3:>12.6f} spread {share:6.1%} "
                  f"of bound {spec['bound']:.0%} "
                  f"({share / spec['bound']:.2f} of it)")
    print(f"worst spread (setup_s aside): {worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


def diff(base_dir: Path, head_dir: Path) -> int:
    base, head = load(base_dir), load(head_dir)
    require_one_host(base, head)
    regressed = 0
    for workload in sorted(set(base) & set(head)):
        print(f"{workload} (base {len(base[workload])} runs, "
              f"head {len(head[workload])} runs)")
        for name, spec in BOUNDS.items():
            b = statistics.median(values(base[workload], name))
            h = statistics.median(values(head[workload], name))
            change = (h - b) / b
            worse = change if spec["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > spec["bound"] else "ok"
            regressed += verdict != "ok"
            print(f"  {name:<14} base {b:>12.6f} head {h:>12.6f} "
                  f"{spec['unit']:<3} {change:+7.1%} "
                  f"(bound {spec['bound']:.0%}) {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("spread", help="spread of one set of runs")
    one.add_argument("directory", type=Path)
    two = sub.add_parser("diff", help="compare two sets of runs")
    two.add_argument("base", type=Path)
    two.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    if args.command == "spread":
        return spread(args.directory)
    return diff(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
