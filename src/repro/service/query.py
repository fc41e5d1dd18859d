"""Benchmark-point queries: the service's request vocabulary.

A query names one grid point in the same coordinates a campaign spec
uses — benchmark, shuffle size, network, cluster/slaves, runtime,
parameter overrides, trial, optional fault plan — and resolves to the
same content-addressed store key a campaign run would compute for that
point. That shared key space is the whole design: a point simulated by
``repro campaign run`` is a warm hit for the service, and a point the
service simulated is ``0 simulated`` for a later campaign.

Validation is delegated to :class:`~repro.campaign.spec.Campaign`
(a query is a degenerate one-point campaign), so the service accepts
exactly the vocabulary campaign specs accept — same benchmark names,
same cluster/runtime sets, same trial seed derivation — and rejects
the rest with the same messages. Every parse failure raises
:class:`ValueError`; the HTTP layer maps that to a 400.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.campaign.spec import Campaign, CampaignPoint
from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan
from repro.store import canonical_json, point_key

#: Fields a point query may carry (everything else is a 400).
QUERY_KEYS = frozenset({
    "benchmark", "shuffle_gb", "network", "cluster", "slaves",
    "runtime", "params", "trial", "fault_plan",
})

#: Fields a query must carry.
REQUIRED_KEYS = frozenset({"shuffle_gb", "network"})


@dataclass
class PointQuery:
    """One parsed benchmark-point query, fully resolved.

    ``signature`` groups queries that can share one
    :class:`~repro.core.suite.MicroBenchmarkSuite` (same cluster,
    slave count, runtime and fault plan) — the scheduler batches cold
    points per signature so the executor's equivalence classes can
    collapse them.
    """

    campaign: Campaign
    point: CampaignPoint
    config: BenchmarkConfig
    #: Content-addressed store key (identical to a campaign run's).
    key: str
    #: Human label for progress lines and tickets.
    label: str
    #: Suite-compatibility group (hashable).
    signature: Tuple[str, ...]

    def describe(self) -> Dict[str, object]:
        """The query's coordinates, for ticket/err JSON payloads."""
        out: Dict[str, object] = {
            "benchmark": self.campaign.benchmark,
            "shuffle_gb": self.point.shuffle_gb,
            "network": self.point.network,
            "cluster": self.campaign.cluster,
            "runtime": self.campaign.runtime,
            "trial": self.point.trial,
        }
        if self.campaign.slaves is not None:
            out["slaves"] = self.campaign.slaves
        if self.campaign.fault_plan is not None:
            out["faulty"] = True
        return out


def _parse_trial(body: dict) -> int:
    raw = body.get("trial", 0)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"trial must be an integer, got {raw!r}")
    if raw < 0:
        raise ValueError(f"trial must be >= 0, got {raw}")
    return raw


def parse_point_query(body: object) -> PointQuery:
    """Parse one request body into a :class:`PointQuery`.

    Raises :class:`ValueError` on anything malformed — unknown keys,
    missing coordinates, bad types, unknown benchmarks/networks/
    runtimes — with a message fit to return to the client.
    """
    if not isinstance(body, dict):
        raise ValueError(
            f"point query must be a JSON object, got "
            f"{type(body).__name__}")
    unknown = set(body) - QUERY_KEYS
    if unknown:
        raise ValueError(
            f"unknown query keys {sorted(unknown)}; "
            f"known: {sorted(QUERY_KEYS)}")
    missing = REQUIRED_KEYS - set(body)
    if missing:
        raise ValueError(f"point query needs {sorted(missing)}")
    try:
        shuffle_gb = float(body["shuffle_gb"])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"shuffle_gb must be a number, got "
            f"{body['shuffle_gb']!r}") from None
    trial = _parse_trial(body)
    params = body.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError(
            f"params must be an object, got {type(params).__name__}")
    fault_plan: Optional[FaultPlan] = None
    if body.get("fault_plan") is not None:
        try:
            fault_plan = FaultPlan.from_dict(body["fault_plan"])
        except (TypeError, ValueError, KeyError) as exc:
            raise ValueError(f"malformed fault_plan: {exc}") from None
    network = str(body["network"])
    try:
        # A query is a one-point campaign: Campaign.__post_init__ is
        # the validator, Campaign.point() the seed/config derivation
        # that Campaign.points() runs for every grid point — so service
        # keys match campaign keys by construction. The query's point
        # is derived alone, so parsing costs the same at any trial.
        campaign = Campaign(
            name="service-query",
            benchmark=str(body.get("benchmark", "MR-AVG")),
            shuffle_gbs=(shuffle_gb,),
            networks=(network,),
            cluster=str(body.get("cluster", "a")),
            slaves=body.get("slaves"),
            runtime=str(body.get("runtime", "mrv1")),
            params=dict(params),
            trials=trial + 1,
            fault_plan=fault_plan,
        )
        point = campaign.point(shuffle_gb, network, trial)
        key = point_key(point.config, campaign.cluster_spec(),
                        jobconf=campaign.jobconf(),
                        fault_plan=campaign.fault_plan)
    except KeyError as exc:
        raise ValueError(str(exc.args[0]) if exc.args else str(exc)) \
            from None
    except TypeError as exc:
        raise ValueError(f"bad query parameter: {exc}") from None
    plan_json = (canonical_json(campaign.fault_plan.to_dict())
                 if campaign.fault_plan is not None else "")
    signature = (campaign.cluster, str(campaign.slaves or ""),
                 campaign.runtime, plan_json)
    return PointQuery(campaign=campaign, point=point,
                      config=point.config, key=key,
                      label=point.label() or f"{shuffle_gb:g}GB",
                      signature=signature)
