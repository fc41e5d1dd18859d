"""Execute campaigns through the result store.

:func:`run_campaign` expands a :class:`~repro.campaign.spec.Campaign`
to its point grid and drives every point through the hardened
:class:`~repro.campaign.executor.CampaignExecutor`: points already in
the :class:`~repro.store.ResultStore` are served from disk
(skip-on-hit), the remaining simulations run with per-point retry,
timeout and worker-crash isolation under the given
:class:`~repro.campaign.executor.RetryPolicy`, failures are
quarantined instead of aborting the campaign, and fresh results are
recorded back to the store and tagged with the campaign name and point
coordinates so the Experiment Book can later regroup them from store
contents alone.

Progress is structured: each completed point emits a
:class:`PointProgress` to the optional ``progress`` callback (the CLI
renders them as one line per point, in completion order), so long
campaigns are observable without parsing stdout.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.suite import MicroBenchmarkSuite, SweepResult, SweepRow
from repro.campaign.backend import ExecutionBackend
from repro.campaign.executor import (
    STATUS_CACHED,
    CampaignExecutor,
    ExecutionReport,
    PointOutcome,
    RetryPolicy,
)
from repro.campaign.spec import Campaign, CampaignPoint
from repro.sim.trace import Tracer
from repro.store import StoreLike

#: Signature of the progress callback.
ProgressFn = Callable[["PointProgress"], None]


@dataclass(frozen=True)
class PointProgress:
    """Structured progress event for one completed campaign point."""

    campaign: str
    index: int
    total: int
    label: str
    key: str
    cached: bool
    execution_time: float
    #: Outcome status (``ok``/``cached``/``failed``/``skipped``).
    status: str = "ok"
    #: Attempts the point took (0 when served from the store).
    attempts: int = 1

    def render(self) -> str:
        """One-line human form (used by ``repro campaign run``)."""
        if self.status == "failed":
            suffix = (f" after {self.attempts} attempt(s)"
                      if self.attempts > 1 else "")
            return (f"[{self.index}/{self.total}] {self.campaign}: "
                    f"{self.label:<32} FAILED{suffix} -> quarantine")
        origin = "store" if self.cached else "run  "
        return (f"[{self.index}/{self.total}] {self.campaign}: "
                f"{self.label:<32} {origin}  {self.execution_time:9.1f} s")


@dataclass
class CampaignPointResult:
    """One executed (or store-served) campaign point."""

    point: CampaignPoint
    key: str
    cached: bool
    result: object  # SimJobResult or StoredResult (same surface)


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: Campaign
    #: Successful points only (grid order); failures live in
    #: :attr:`outcomes` and the store's quarantine ledger.
    points: List[CampaignPointResult]
    #: Points simulated in this run (store misses).
    executed: int
    #: Points served from the disk store without simulating.
    from_store: int
    #: Points that exhausted their retries (quarantined).
    failed: int = 0
    #: Points never attempted (interrupt or fail-fast abort).
    skipped: int = 0
    #: Whether SIGINT/SIGTERM stopped the run early.
    interrupted: bool = False
    #: Per-point outcomes for every grid point, grid order.
    outcomes: List[PointOutcome] = field(default_factory=list)
    #: Per-stage wall-clock seconds (expand / store-lookup /
    #: shared-setup / simulate / record), also embedded in the
    #: campaign checkpoint; rendered by ``repro campaign run
    #: --profile``.
    profile: Dict[str, float] = field(default_factory=dict)
    #: Distinct simulations the batch planner ran for the cold points
    #: (< ``executed`` when equivalence classes collapsed; equals it in
    #: per-point mode).
    unique_simulations: int = 0
    #: Whether the batch (equivalence-class) scheduler ran.
    batched: bool = False
    #: Execution backend that simulated the cold points (``local`` or
    #: ``pool``).
    backend: str = "local"

    @property
    def completed(self) -> bool:
        """Whether every grid point produced a result."""
        return not self.failed and not self.skipped and not self.interrupted

    def sweep_result(self, variant: str = "", trial: int = 0) -> SweepResult:
        """One variant's size×network grid as a figure-shaped sweep."""
        rows = [
            SweepRow(
                benchmark=self.campaign.benchmark,
                network=p.result.interconnect_name,
                shuffle_gb=p.point.shuffle_gb,
                execution_time=p.result.execution_time,
                result=p.result,
            )
            for p in self.points
            if p.point.variant == variant and p.point.trial == trial
        ]
        if not rows:
            have = sorted({p.point.variant for p in self.points})
            raise KeyError(
                f"campaign {self.campaign.name!r} has no variant "
                f"{variant!r} (has: {have})"
            )
        return SweepResult(rows)

    def variants(self) -> List[str]:
        """Variant labels present, in campaign order."""
        seen: Dict[str, None] = {}
        for p in self.points:
            seen.setdefault(p.point.variant, None)
        return list(seen)


def run_campaign(
    campaign: Campaign,
    store: Optional[StoreLike] = None,
    jobs: int = 1,
    progress: Optional[ProgressFn] = None,
    policy: Optional[RetryPolicy] = None,
    fail_fast: bool = False,
    batch: bool = True,
    tracer: Optional[Tracer] = None,
    backend: Optional[ExecutionBackend] = None,
) -> CampaignResult:
    """Run every point of a campaign, skipping points already stored.

    With a ``store``, previously-computed points are served from disk
    (no simulation) and fresh points are recorded and tagged; without
    one the campaign still runs, just uncached. ``jobs > 1`` fans the
    misses over supervised worker processes with bit-identical results.

    ``policy`` configures per-point retries, exponential backoff and
    wall-clock timeouts; a point that exhausts its retries is recorded
    in the store's quarantine ledger and counted in ``failed`` — the
    campaign completes instead of raising. ``fail_fast=True`` aborts
    after the first quarantined point (the rest count as ``skipped``).
    SIGINT/SIGTERM interrupt gracefully: completed points are already
    durable in the store, a checkpoint is written, and the result comes
    back with ``interrupted=True``.

    By default the executor groups the cold points into
    simulation-equivalence classes and simulates one representative per
    class (bit-identical store contents, large wall-clock wins on
    trial-heavy sweeps); ``batch=False`` runs every cold point as its
    own unit, the oracle the batch path is benchmarked against.

    ``backend`` swaps the execution engine the misses run on: ``None``
    keeps the default in-process :class:`LocalBackend`; a
    :class:`~repro.campaign.pool.PoolBackend` fans them over a
    socket-connected worker pool with lease-based failover. A supplied
    backend is borrowed — the caller owns its lifecycle (``close()``).
    """
    suite = MicroBenchmarkSuite(
        cluster=campaign.cluster_spec(),
        jobconf=campaign.jobconf(),
        fault_plan=campaign.fault_plan,
        store=store,
    )
    expand_started = time.monotonic()
    points = campaign.points()
    expand_seconds = time.monotonic() - expand_started
    total = len(points)
    emitted = {"count": 0}

    def on_point(outcome: PointOutcome) -> None:
        """Adapt one executor outcome to a PointProgress event."""
        emitted["count"] += 1
        if progress is None:
            return
        execution_time = (outcome.result.execution_time
                          if outcome.result is not None else math.nan)
        progress(PointProgress(
            campaign=campaign.name,
            index=emitted["count"],
            total=total,
            label=outcome.label,
            key=outcome.key,
            cached=outcome.status == STATUS_CACHED,
            execution_time=execution_time,
            status=outcome.status,
            attempts=outcome.attempts,
        ))

    def point_meta(point: CampaignPoint) -> dict:
        """The campaign tag stamped onto one point's store record."""
        return {
            "figure": campaign.figure,
            "title": campaign.title,
            "benchmark": campaign.benchmark,
            "variant": point.variant,
            "shuffle_gb": point.shuffle_gb,
            "network": point.network,
            "trial": point.trial,
            "baseline": campaign.baseline or campaign.networks[0],
            "faulty": campaign.fault_plan is not None,
        }

    metas = [point_meta(point) for point in points]
    executor = CampaignExecutor(
        suite,
        policy=policy,
        jobs=jobs,
        fail_fast=fail_fast,
        batch=batch,
        tracer=tracer,
        progress=on_point,
        campaign=campaign.name,
        backend=backend,
    )
    executor.profile_base = {"expand": expand_seconds}
    # Replicated sibling records are written with their campaign tag in
    # place, so the tag pass below skips rewriting them.
    executor.tag_plan = (campaign.name, metas)
    report: ExecutionReport = executor.execute(
        [p.config for p in points], labels=[p.label() for p in points])

    tag_started = time.monotonic()
    out: List[CampaignPointResult] = []
    succeeded: List[tuple] = []
    for i, (point, outcome) in enumerate(zip(points, report.outcomes)):
        if not outcome.succeeded:
            continue
        succeeded.append((i, outcome))
        out.append(CampaignPointResult(
            point=point, key=outcome.key,
            cached=outcome.status == STATUS_CACHED,
            result=outcome.result,
        ))
    if suite.store is not None:
        suite.store.tag_many([
            (outcome.key, campaign.name, metas[i])
            for i, outcome in succeeded
        ])
    profile = dict(report.profile)
    profile["record"] = (profile.get("record", 0.0)
                         + time.monotonic() - tag_started)
    return CampaignResult(
        campaign=campaign,
        points=out,
        executed=report.executed,
        from_store=report.from_store,
        failed=report.failed,
        skipped=report.skipped,
        interrupted=report.interrupted,
        outcomes=list(report.outcomes),
        profile=profile,
        unique_simulations=report.unique_simulations,
        batched=report.batched,
        backend=report.backend,
    )
