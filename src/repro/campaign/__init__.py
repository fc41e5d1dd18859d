"""Declarative benchmark campaigns over the persistent result store.

The paper's figures are parameterized sweeps — shuffle sizes ×
interconnects × (pair sizes | task counts | data types | runtimes),
several trials each. This package turns those sweeps into data:

* :mod:`repro.campaign.spec` — :class:`Campaign`, a frozen spec
  (axes, params, variants, trials, fault plan) loadable from TOML or
  JSON (``load_campaign`` / ``load_campaigns``), expandable to exact
  :class:`~repro.core.config.BenchmarkConfig` grid points.
* :mod:`repro.campaign.batch` — :func:`plan_batches` and
  :class:`BatchPlan`, the simulation-equivalence planner: cold points
  whose configs project to the same residue signature share one
  simulation, and the result is replicated onto the siblings
  byte-identically.
* :mod:`repro.campaign.executor` — :class:`CampaignExecutor` and
  :class:`RetryPolicy`, the hardened per-point engine: forked worker
  processes, retries with exponential backoff, wall-clock timeouts,
  quarantine-instead-of-abort, graceful SIGINT/SIGTERM checkpointing
  (see ``docs/ROBUSTNESS.md``).
* :mod:`repro.campaign.runner` — :func:`run_campaign`: skip-on-hit
  execution through a :class:`~repro.store.ResultStore`, supervised
  parallelism for the misses, structured per-point progress, and
  campaign tagging so :mod:`repro.analysis.book` can rebuild every
  figure from store contents alone.
* :mod:`repro.campaign.backend` / :mod:`repro.campaign.pool` —
  :class:`ExecutionBackend`, the pluggable "where do cold units run"
  seam: :class:`LocalBackend` (the default: inline, or a pool of
  workers forked for each pass) and :class:`PoolBackend`, a socket
  coordinator for ``repro worker`` processes with heartbeat leases and
  dead-worker failover (see ``docs/DISTRIBUTED.md``).

The ``benchmarks/campaigns/*.json`` specs shipped with the repo are
the paper figures expressed this way; ``repro campaign run SPEC``
executes them from the command line.
"""

from repro.campaign.spec import (
    Campaign,
    CampaignPoint,
    load_campaign,
    load_campaigns,
)
from repro.campaign.batch import (
    BatchPlan,
    ResidueGroup,
    plan_batches,
    residue_signature,
)
from repro.campaign.backend import (
    ExecutionBackend,
    ExecutionBackendError,
)
from repro.campaign.executor import (
    CampaignExecutor,
    ExecutionReport,
    PointOutcome,
    RetryPolicy,
)
from repro.campaign.pool import LocalBackend, PoolBackend
from repro.campaign.runner import (
    CampaignPointResult,
    CampaignResult,
    PointProgress,
    run_campaign,
)

__all__ = [
    "BatchPlan",
    "Campaign",
    "CampaignExecutor",
    "CampaignPoint",
    "CampaignPointResult",
    "CampaignResult",
    "ExecutionBackend",
    "ExecutionBackendError",
    "ExecutionReport",
    "LocalBackend",
    "PointOutcome",
    "PointProgress",
    "PoolBackend",
    "ResidueGroup",
    "RetryPolicy",
    "load_campaign",
    "load_campaigns",
    "plan_batches",
    "residue_signature",
    "run_campaign",
]
