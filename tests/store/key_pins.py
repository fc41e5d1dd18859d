"""Ordered store keys of three fixed point sets, digested.

``tests/data/store_key_pins.json`` pins one SHA-256 per set over the
newline-joined store keys, in point order:

* ``golden40`` — the 40 golden points of ``tests/data/golden_times.json``
  on ``cluster_a(2)`` under each point's runtime generation;
* ``figures`` — every point of the shipped figure specs
  (``benchmarks/campaigns/*.json``, files in name order);
* ``trials1000`` — the 1000-point MR-AVG trial campaign (5 sizes x 5
  networks x 40 trials, seed 20140901).

A derivation change that altered any key would turn every existing
store cold, so these digests may only change together with
:data:`~repro.store.keys.SCHEMA_VERSION`.

Run as a script, this prints the three digests as JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign import Campaign, load_campaigns
from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan
from repro.hadoop.cluster import ClusterSpec, cluster_a
from repro.hadoop.job import JobConf
from repro.store import point_key

REPO = Path(__file__).resolve().parents[2]
GOLDEN_PATH = REPO / "tests" / "data" / "golden_times.json"
SPEC_DIR = REPO / "benchmarks" / "campaigns"


#: ``(config, cluster, jobconf, fault_plan)``: what one key covers here.
Point = Tuple[BenchmarkConfig, ClusterSpec, JobConf, Optional[FaultPlan]]


def golden40_points() -> List[Point]:
    """The 40 golden points."""
    golden = json.loads(GOLDEN_PATH.read_text())
    points = []
    for point in golden["points"]:
        config = BenchmarkConfig.from_shuffle_size(
            point["shuffle_gb"] * 1e9, pattern=point["pattern"],
            network=point["network"], num_maps=golden["num_maps"],
            num_reduces=golden["num_reduces"], key_size=golden["key_size"],
            value_size=golden["value_size"])
        points.append((config, cluster_a(2),
                       JobConf(version=point["version"]), None))
    return points


def campaign_points(campaign: Campaign) -> List[Point]:
    """One campaign's points, with the components ``run_campaign``
    keys them under."""
    cluster, jobconf = campaign.cluster_spec(), campaign.jobconf()
    return [(p.config, cluster, jobconf, campaign.fault_plan)
            for p in campaign.points()]


def figure_points() -> List[Point]:
    """Every shipped figure-spec point."""
    points: List[Point] = []
    for path in sorted(SPEC_DIR.glob("*.json")):
        for campaign in load_campaigns(path):
            points.extend(campaign_points(campaign))
    return points


def trials_campaign() -> Campaign:
    """The 1000-point trial campaign: 25 simulations, 40 seeds each."""
    return Campaign(
        name="bench-batch-1000", benchmark="MR-AVG",
        shuffle_gbs=(0.05, 0.1, 0.2, 0.4, 0.8),
        networks=("1GigE", "10GigE", "ipoib-qdr", "ipoib-fdr", "rdma"),
        trials=40, slaves=2,
        params={"num_maps": 8, "num_reduces": 4, "key_size": 512,
                "value_size": 512, "seed": 20140901})


def point_sets() -> Dict[str, List[Point]]:
    """Every pinned point set, by name."""
    return {"golden40": golden40_points(), "figures": figure_points(),
            "trials1000": campaign_points(trials_campaign())}


def keys_of(points: List[Point]) -> List[str]:
    """The store keys of ``points``, in order."""
    return [point_key(config, cluster, jobconf=jobconf, fault_plan=plan)
            for config, cluster, jobconf, plan in points]


def digest(keys: List[str]) -> str:
    """SHA-256 over the newline-joined keys."""
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()


def pin_digests() -> Dict[str, object]:
    """``{set: {"points": n, "sha256": digest}}`` for every pinned set."""
    return {name: {"points": len(points), "sha256": digest(keys_of(points))}
            for name, points in point_sets().items()}


if __name__ == "__main__":
    print(json.dumps(pin_digests(), indent=1, sort_keys=True))
