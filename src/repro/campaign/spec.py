"""Declarative campaign specifications.

A *campaign* is the unit the paper's evaluation is made of: one
benchmark swept over shuffle sizes × networks (× optional parameter
variants × trials) on one cluster/runtime, optionally under a fault
plan. The ``bench_fig*.py`` scripts used to hand-roll these loops;
:class:`Campaign` makes them data — loadable from TOML or JSON,
expandable to the exact :class:`~repro.core.config.BenchmarkConfig`
grid, and executable through :func:`repro.campaign.runner.run_campaign`
with per-point store skip-on-hit.

A JSON spec looks like::

    {
      "name": "fig2a",
      "figure": "Fig. 2(a)",
      "title": "MR-AVG job execution time, Cluster A MRv1",
      "benchmark": "MR-AVG",
      "shuffle_gbs": [4.0, 8.0, 16.0, 32.0],
      "networks": ["1GigE", "10GigE", "ipoib-qdr"],
      "cluster": "a", "slaves": 4, "runtime": "mrv1",
      "params": {"num_maps": 16, "num_reduces": 8,
                 "key_size": 512, "value_size": 512},
      "variants": [{"label": "100B", "key_size": 50, "value_size": 50}],
      "trials": 1,
      "fault_plan": {"node_crashes": [{"node": "slave1", "at_time": 30}]}
    }

The TOML form is field-for-field identical (``[params]`` table,
``[[variants]]`` array of tables). A file may hold one campaign object
or ``{"campaigns": [...]}``. TOML needs :mod:`tomllib` (Python 3.11+);
JSON always works.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.benchmarks import get_benchmark
from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan
from repro.hadoop.cluster import ClusterSpec, cluster_a, cluster_b
from repro.hadoop.job import JobConf
from repro.hadoop.runtime import available_runtimes

#: Seed stride between trials (matches ``MicroBenchmarkSuite.run_trials``).
TRIAL_SEED_STRIDE = 9973

#: Most distinct (cluster, slaves) specs and runtimes
#: :meth:`Campaign.cluster_spec` and :meth:`Campaign.jobconf` keep.
SPEC_CACHE_LIMIT = 64


@functools.lru_cache(maxsize=SPEC_CACHE_LIMIT, typed=True)
def _cluster_spec(cluster: str, slaves: Optional[int]) -> ClusterSpec:
    """The shared testbed spec for one (cluster, slaves) pair.

    Cached by exact argument type: ``slaves`` 2, 2.0 and ``True`` build
    specs with different canonical text, so they must not share one.
    """
    factory = cluster_a if cluster == "a" else cluster_b
    return factory(slaves) if slaves else factory()


@functools.lru_cache(maxsize=SPEC_CACHE_LIMIT, typed=True)
def _jobconf(runtime: str) -> JobConf:
    """The shared framework configuration of one runtime generation."""
    return JobConf(version=runtime)


@dataclass(frozen=True)
class CampaignPoint:
    """One fully-expanded grid point of a campaign."""

    campaign: str
    variant: str
    shuffle_gb: float
    network: str
    trial: int
    config: BenchmarkConfig

    def label(self) -> str:
        """Human-readable point coordinates for progress lines."""
        parts = [f"{self.shuffle_gb:g}GB", self.network]
        if self.variant:
            parts.insert(0, self.variant)
        if self.trial:
            parts.append(f"trial{self.trial}")
        return " ".join(parts)


@dataclass(frozen=True)
class Campaign:
    """A declarative, reproducible parameter sweep."""

    name: str
    shuffle_gbs: Tuple[float, ...]
    networks: Tuple[str, ...]
    benchmark: str = "MR-AVG"
    #: Paper figure this campaign reproduces (Experiment Book heading).
    figure: str = ""
    #: Free-text title for tables and book pages.
    title: str = ""
    #: ``"a"`` (Westmere) or ``"b"`` (Stampede).
    cluster: str = "a"
    #: Slave count; ``None`` keeps the testbed default.
    slaves: Optional[int] = None
    #: Runtime generation (``mrv1``/``yarn``), from the registry.
    runtime: str = "mrv1"
    #: Extra :class:`BenchmarkConfig` kwargs applied to every point.
    params: Dict[str, object] = field(default_factory=dict, hash=False)
    #: Named parameter overlays, each crossed with the size×network
    #: grid. Every dict needs a ``"label"``; other keys override
    #: ``params``. Empty means one anonymous variant.
    variants: Tuple[Dict[str, object], ...] = ()
    #: Seed-varied repetitions per point (seed + trial * 9973).
    trials: int = 1
    #: Fault plan applied to every point (``None`` = healthy).
    fault_plan: Optional[FaultPlan] = None
    #: Baseline network for improvement summaries (default: first).
    baseline: Optional[str] = None

    def __post_init__(self) -> None:
        """Validate field values as soon as the campaign is built."""
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.shuffle_gbs:
            raise ValueError(f"campaign {self.name!r} has no shuffle_gbs")
        if not self.networks:
            raise ValueError(f"campaign {self.name!r} has no networks")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.cluster not in ("a", "b"):
            raise ValueError(
                f"cluster must be 'a' or 'b', got {self.cluster!r}"
            )
        if self.runtime not in available_runtimes():
            raise ValueError(
                f"runtime must be one of {available_runtimes()}, "
                f"got {self.runtime!r}"
            )
        get_benchmark(self.benchmark)  # raises KeyError on unknown names
        for variant in self.variants:
            if not variant.get("label"):
                raise ValueError(
                    f"campaign {self.name!r}: every variant needs a 'label'"
                )

    # -- expansion ---------------------------------------------------------

    def cluster_spec(self) -> ClusterSpec:
        """The testbed this campaign runs on.

        One shared frozen instance per (cluster, slaves), so the store
        key's fragment memo, which is keyed by object identity, hits
        for every campaign and service query naming the same testbed.
        """
        return _cluster_spec(self.cluster, self.slaves)

    def jobconf(self) -> JobConf:
        """The framework configuration (runtime generation); one shared
        frozen instance per runtime, like :meth:`cluster_spec`."""
        return _jobconf(self.runtime)

    def point(self, shuffle_gb: float, network: str, trial: int = 0,
              variant: Optional[Dict[str, object]] = None) -> CampaignPoint:
        """One grid point, derived on its own.

        :meth:`points` is this over the grid, so a point's config and
        trial seed are the same however it is reached, and the cost
        does not grow with ``trial``. ``variant`` is one of
        :attr:`variants` (default: the anonymous one).
        """
        variant = variant if variant is not None else {"label": ""}
        overrides = {k: v for k, v in variant.items() if k != "label"}
        kwargs = dict(self.params, **overrides)
        base_seed = kwargs.pop("seed", None)
        if base_seed is not None or trial:
            kwargs["seed"] = ((base_seed if base_seed is not None
                               else BenchmarkConfig.seed)
                              + trial * TRIAL_SEED_STRIDE)
        config = BenchmarkConfig.from_shuffle_size(
            shuffle_gb * 1e9, pattern=get_benchmark(self.benchmark).pattern,
            network=network, **kwargs)
        return CampaignPoint(
            campaign=self.name,
            variant=str(variant["label"]),
            shuffle_gb=shuffle_gb,
            network=network,
            trial=trial,
            config=config,
        )

    def points(self) -> List[CampaignPoint]:
        """The fully-expanded grid, in deterministic order.

        Order: variant → shuffle size → network → trial (the same
        nesting the figure tables use).
        """
        return [self.point(size, network, trial, variant)
                for variant in self.variants or ({"label": ""},)
                for size in self.shuffle_gbs
                for network in self.networks
                for trial in range(self.trials)]

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict spec (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {
            "name": self.name,
            "benchmark": self.benchmark,
            "shuffle_gbs": list(self.shuffle_gbs),
            "networks": list(self.networks),
            "cluster": self.cluster,
            "runtime": self.runtime,
            "trials": self.trials,
        }
        if self.figure:
            out["figure"] = self.figure
        if self.title:
            out["title"] = self.title
        if self.slaves is not None:
            out["slaves"] = self.slaves
        if self.params:
            out["params"] = dict(self.params)
        if self.variants:
            out["variants"] = [dict(v) for v in self.variants]
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        if self.baseline is not None:
            out["baseline"] = self.baseline
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        """Build a campaign from a spec dict; friendly errors."""
        if not isinstance(data, dict):
            raise ValueError(
                f"campaign spec must be an object, got {type(data).__name__}"
            )
        known = {
            "name", "figure", "title", "benchmark", "shuffle_gbs",
            "networks", "cluster", "slaves", "runtime", "params",
            "variants", "trials", "fault_plan", "baseline",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(data)
        kwargs["shuffle_gbs"] = tuple(
            float(s) for s in data.get("shuffle_gbs", ())
        )
        kwargs["networks"] = tuple(data.get("networks", ()))
        if "params" in kwargs:
            kwargs["params"] = dict(kwargs["params"])
        if "variants" in kwargs:
            kwargs["variants"] = tuple(dict(v) for v in kwargs["variants"])
        if kwargs.get("fault_plan") is not None:
            kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ValueError(f"malformed campaign spec: {exc}") from None


def _parse_spec_text(text: str, suffix: str, source: str) -> dict:
    """Parse TOML or JSON spec text into a plain dict."""
    if suffix in (".toml", ".tml"):
        try:
            import tomllib
        except ImportError:  # Python < 3.11
            raise ValueError(
                f"cannot load TOML campaign {source}: tomllib needs "
                f"Python 3.11+ (use the JSON form instead)"
            ) from None
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"invalid TOML in {source}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {source}: {exc}") from None


def load_campaigns(path: Union[str, Path]) -> List[Campaign]:
    """Load one or many campaigns from a ``.json`` or ``.toml`` file.

    The file holds either a single campaign object or a
    ``{"campaigns": [...]}`` collection (same for TOML, with
    ``[[campaigns]]``).
    """
    path = Path(path)
    data = _parse_spec_text(path.read_text(), path.suffix.lower(), str(path))
    entries = data.get("campaigns") if isinstance(data, dict) else None
    if entries is None:
        entries = [data]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a campaign or a 'campaigns' list")
    return [Campaign.from_dict(entry) for entry in entries]


def load_campaign(path: Union[str, Path], name: Optional[str] = None) -> Campaign:
    """Load one campaign; ``name`` picks from a multi-campaign file."""
    campaigns = load_campaigns(path)
    if name is None:
        if len(campaigns) > 1:
            raise ValueError(
                f"{path} holds {len(campaigns)} campaigns "
                f"({', '.join(c.name for c in campaigns)}); pass name="
            )
        return campaigns[0]
    for campaign in campaigns:
        if campaign.name == name:
            return campaign
    raise KeyError(
        f"no campaign {name!r} in {path} "
        f"(has: {', '.join(c.name for c in campaigns)})"
    )
