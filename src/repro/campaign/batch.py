"""Batch execution planning: equivalence classes over campaign points.

A campaign expands into hundreds or thousands of points, but the
simulation consumes only a small projection of each point's config:
the resolved interconnect, the task counts, the record size, and the
shuffle matrix (plus the config seed when failure coins are armed —
see below). Points that agree on that projection — different trials of
a seed-independent MR-AVG sweep, alias spellings of the same network,
data-type variants with equal record sizes — are *simulation
equivalent*: the discrete-event run is bit-for-bit the same.

:func:`plan_batches` groups a campaign's cold points by that
projection (:func:`residue_signature`). The executor then simulates
one *representative* per group and replicates its stored result onto
the group's other members (:func:`replicate_result`), with each
sibling keeping its own config, store key, and provenance — so the
store's contents are byte-identical to what the per-point loop writes,
only cheaper to produce.

The seed rule
-------------
``BenchmarkConfig.seed`` reaches the simulation through exactly two
doors: the shuffle matrix (captured by
:func:`~repro.core.config.matrix_cache_key`, which already normalizes
the seed away for MR-AVG) and the jobconf-level failure coins
(``attempt_fails``), which return immediately when
``task_failure_probability == 0``. A campaign-level
:class:`~repro.faults.FaultPlan` draws from its *own* seed, not the
config's — but plans change execution, so any non-noop suite plan
keeps the config seed in the signature as conservative insurance. The
full contract is documented in ``docs/MODEL.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.core.config import EXACT_LIMIT, BenchmarkConfig, matrix_cache_key
from repro.hadoop.job import DEFAULT_JOB_CONF
from repro.net.interconnect import canonical_name
from repro.store.records import StoredResult

__all__ = [
    "BatchPlan",
    "ResidueGroup",
    "plan_batches",
    "replicate_result",
    "residue_signature",
]


def residue_signature(suite, config: BenchmarkConfig,
                      exact_limit: int = EXACT_LIMIT) -> tuple:
    """The projection of ``config`` the simulation actually consumes.

    Two configs with equal signatures (under the same suite — same
    cluster, jobconf, cost model, fault plan) produce bit-identical
    :class:`~repro.hadoop.result.SimJobResult` timing/stats payloads;
    only config-echo fields (pattern label, data type, seed...) differ,
    and those are carried by each point's own config.
    """
    signature = (
        canonical_name(config.network),
        config.num_maps,
        config.num_reduces,
        config.record_size,
        matrix_cache_key(config, exact_limit),
    )
    jobconf = suite.jobconf if suite.jobconf is not None else DEFAULT_JOB_CONF
    armed = jobconf.task_failure_probability > 0.0
    plan = suite.fault_plan
    if plan is not None and not plan.is_noop():
        armed = True
    if armed:
        signature = signature + (config.seed,)
    return signature


@dataclass(frozen=True)
class ResidueGroup:
    """One equivalence class of a batch plan.

    ``members`` are indices into the planned config list, in
    first-touch order; ``members[0]`` is the representative that
    actually simulates.
    """

    signature: tuple
    members: Tuple[int, ...]

    @property
    def representative(self) -> int:
        """Index of the member whose simulation stands for the group."""
        return self.members[0]


@dataclass(frozen=True)
class BatchPlan:
    """The grouped execution plan for one campaign's cold points."""

    groups: Tuple[ResidueGroup, ...]
    points: int

    @property
    def unique(self) -> int:
        """Number of simulations the plan actually runs."""
        return len(self.groups)

    @property
    def collapsed(self) -> int:
        """Number of points served by a sibling's simulation."""
        return self.points - self.unique


def plan_batches(suite, configs: Sequence[BenchmarkConfig],
                 pending: Sequence[int]) -> BatchPlan:
    """Group the pending point indices into simulation-equivalence
    classes.

    Groups (and members within a group) come out in first-touch order
    over ``pending``, so batch execution visits points in the same
    deterministic order as the per-point loop.
    """
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    for i in pending:
        signature = residue_signature(suite, configs[i])
        members = groups.get(signature)
        if members is None:
            groups[signature] = [i]
            order.append(signature)
        else:
            members.append(i)
    return BatchPlan(
        groups=tuple(
            ResidueGroup(signature=sig, members=tuple(groups[sig]))
            for sig in order
        ),
        points=len(pending),
    )


def replicate_result(stored: StoredResult,
                     config: BenchmarkConfig) -> StoredResult:
    """A sibling's record: the representative's stored result under the
    sibling's own config.

    The returned :class:`~repro.store.StoredResult` is byte-identical
    to what simulating the sibling directly would have stored (floats
    round-trip through ``repr`` exactly; every other payload field is
    signature-determined). Siblings share the representative's
    ``phase_rows``, so the caller converts a ``SimJobResult`` once per
    unit, not once per sibling.
    """
    return replace(stored, config=config)
