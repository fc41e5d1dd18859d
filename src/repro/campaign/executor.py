"""Hardened per-point campaign execution engine.

:class:`CampaignExecutor` runs campaigns, service drain passes and
multi-process suite sweeps. It treats each point as an independently
supervised unit of work:

* **Retries with exponential backoff** — a point that raises (or whose
  worker dies) is retried up to :attr:`RetryPolicy.retries` times,
  waiting ``backoff * backoff_factor**(attempt-1)`` seconds between
  attempts (capped at :attr:`RetryPolicy.max_backoff`); execution
  paths key the wait with the point's store key, decorrelating the
  jitter so N workers retrying one transient failure don't stampede
  in lockstep (deterministic per ``(key, attempt)``).
* **Per-point wall-clock timeouts** — with
  :attr:`RetryPolicy.timeout` set, a worker that exceeds it is
  terminated and the attempt counts as a failure (retryable).
* **Worker-crash isolation** — with ``jobs > 1`` or a timeout, the
  pass runs on worker processes forked for it; a SIGKILL'd/dying
  worker costs only its point an attempt, and a successor is forked
  for the next attempt or point.
* **Quarantine instead of abort** — a point that exhausts its retries
  is recorded in the store's ``quarantine.json`` ledger (exception,
  traceback, attempts, and the full per-attempt history: failure
  kind, worker id, wall time) and the campaign *completes* with a
  ``failed`` count; ``repro campaign resume`` clears the ledger
  entries and re-runs exactly the missing points.
* **Graceful interruption** — SIGINT/SIGTERM stop launching new
  points, terminate in-flight workers (completed points are already
  durably in the store), write a campaign checkpoint, and return with
  ``interrupted=True``; the CLI maps that to exit code 130.
* **Observability** — retries, timeouts, crashes and quarantines emit
  :data:`~repro.sim.trace.CAT_HARNESS` markers (wall-clock times) on
  an optional :class:`~repro.sim.trace.Tracer`.

*Where* units execute is pluggable: the executor drives an
:class:`~repro.campaign.backend.ExecutionBackend` — by default the
:class:`~repro.campaign.pool.LocalBackend` (inline, or workers forked
on this host for the pass), optionally the
:class:`~repro.campaign.pool.PoolBackend` socket worker pool for
multi-process / multi-host fan-out with lease-based failover (see
``docs/DISTRIBUTED.md``).

Determinism is untouched: every point is a seeded, self-contained
simulation, so a retried, resumed, reassigned or differently-scheduled
point is bit-identical to a clean single-process run (asserted by the
chaos tests against the 40-point golden suite). Their faults come from
the hooks in :mod:`repro.campaign.chaos`.
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.backend import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    ExecutionBackend,
    ExecutionContext,
)
from repro.campaign.batch import plan_batches, replicate_result
from repro.campaign.pool import LocalBackend
from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, ResultLike
from repro.sim.trace import CAT_HARNESS, Tracer
from repro.store import StoredResult


def precompute_matrices(configs) -> int:
    """:func:`repro.core.matrix.precompute_matrices`, imported on the
    first cold pass, so a warm campaign never loads numpy."""
    from repro.core.matrix import precompute_matrices as precompute

    return precompute(configs)


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executor fights for each point."""

    #: Retries after the first attempt (total attempts = retries + 1).
    retries: int = 0
    #: Seconds before the first retry (0 disables backoff waits).
    backoff: float = 0.1
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff wait.
    max_backoff: float = 30.0
    #: Per-attempt wall-clock limit in seconds (None = unlimited).
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate the policy as soon as it is built."""
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def delay(self, attempt: int, key: Optional[str] = None) -> float:
        """Backoff before the retry following failed attempt ``attempt``.

        Without a ``key`` this is the exact exponential progression
        (``backoff * backoff_factor**(attempt-1)``, capped). With a
        ``key`` — execution paths pass the point's store key — the
        wait is scaled by a deterministic per-``(key, attempt)`` factor
        in ``[0.5, 1.0)`` (decorrelated jitter): reproducible run to
        run, but N workers retrying the same transient failure no
        longer stampede in lockstep.
        """
        if self.backoff <= 0:
            return 0.0
        base = min(self.backoff * self.backoff_factor ** (attempt - 1),
                   self.max_backoff)
        if key is None:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return base * (0.5 + 0.5 * unit)


@dataclass
class PointOutcome:
    """Everything the executor learned about one grid point."""

    index: int
    label: str
    key: str
    status: str = STATUS_SKIPPED
    attempts: int = 0
    result: Optional[ResultLike] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Wall-clock seconds of the final attempt (0 for cached/skipped).
    wall_time: float = 0.0

    @property
    def succeeded(self) -> bool:
        """Whether the point produced a usable result."""
        return self.status in (STATUS_OK, STATUS_CACHED)


@dataclass
class ExecutionReport:
    """What one :meth:`CampaignExecutor.execute` pass did."""

    outcomes: List[PointOutcome]
    interrupted: bool = False
    #: The signal that interrupted the run, when any.
    stop_signal: Optional[int] = None
    #: Whether this pass ran the batch (equivalence-class) scheduler.
    batched: bool = False
    #: Simulations the batch plan intended to run (one per equivalence
    #: class of the cold points); equals the cold-point count when
    #: batching is off or nothing collapses.
    unique_simulations: int = 0
    #: Per-stage wall-clock seconds (store-lookup / shared-setup /
    #: simulate / record, plus whatever the caller seeds — the runner
    #: adds expand and tag time).
    profile: Dict[str, float] = field(default_factory=dict)
    #: Name of the execution backend the cold units ran on.
    backend: str = "local"

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        """Points simulated in this run."""
        return self._count(STATUS_OK)

    @property
    def from_store(self) -> int:
        """Points served from the memo cache or disk store."""
        return self._count(STATUS_CACHED)

    @property
    def failed(self) -> int:
        """Points that exhausted their retries (quarantined)."""
        return self._count(STATUS_FAILED)

    @property
    def skipped(self) -> int:
        """Points never attempted (interrupt / fail-fast abort)."""
        return self._count(STATUS_SKIPPED)


class CampaignExecutor:
    """Supervised per-point execution over a suite's point hooks.

    The executor serves cached points through one
    :meth:`~repro.core.suite.MicroBenchmarkSuite.lookup_points` call, then
    drives the misses through an
    :class:`~repro.campaign.backend.ExecutionBackend` (by default the
    local inline/forked-worker backend), applying the
    :class:`RetryPolicy` uniformly on every substrate.
    """

    def __init__(
        self,
        suite: MicroBenchmarkSuite,
        policy: Optional[RetryPolicy] = None,
        jobs: int = 1,
        fail_fast: bool = False,
        batch: bool = True,
        tracer: Optional[Tracer] = None,
        progress=None,
        campaign: str = "",
        handle_signals: bool = True,
        backend: Optional[ExecutionBackend] = None,
    ):
        """Bind the executor to a suite and its failure policy.

        ``handle_signals=False`` leaves the process's SIGINT/SIGTERM
        handlers alone — for embedding the executor inside a host that
        owns signal handling (the benchmark service's scheduler thread);
        the host interrupts a pass via :meth:`request_stop` instead.

        ``backend`` plugs in an execution substrate; None builds the
        default :class:`~repro.campaign.pool.LocalBackend` from
        ``jobs``. A caller-supplied backend is *borrowed*: the executor
        never closes it.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.suite = suite
        self.policy = policy if policy is not None else RetryPolicy()
        self.jobs = jobs
        self.fail_fast = fail_fast
        #: ``False`` runs every cold point as its own unit, with no
        #: matrix precompute — the oracle the batch path is benchmarked
        #: and parity-tested against.
        self.batch = batch
        self.tracer = tracer
        #: Called with each finished :class:`PointOutcome`
        #: (completion order).
        self.progress = progress
        self.campaign = campaign
        self.handle_signals = handle_signals
        self.backend = (backend if backend is not None
                        else LocalBackend(jobs=jobs))
        #: Stage seconds merged into the profile before execution (the
        #: runner seeds campaign-expansion time here).
        self.profile_base: Dict[str, float] = {}
        #: Optional ``(campaign_name, metas)`` with one tag-meta dict
        #: per config (set by the runner). When present, replicated
        #: sibling records are written with their campaign tag already
        #: in place, so the runner's post-hoc tag pass finds the tag in
        #: the store's tags index and neither reads nor rewrites them
        #: (the bytes match put-then-tag exactly).
        self.tag_plan: Optional[Tuple[str, Sequence[Optional[dict]]]] = None
        #: Per-stage wall-clock seconds of the last ``execute`` pass.
        self.profile: Dict[str, float] = {}
        self._unit_of: Dict[int, Tuple[int, ...]] = {}
        self._stop_signal: Optional[int] = None
        self._stop_requested = False
        self._abort = False

    # -- public surface ----------------------------------------------------

    def request_stop(self, signum: int = signal.SIGINT) -> None:
        """Interrupt execution as a signal would (thread-safe, sticky).

        The embedding host's replacement for sending a signal: the
        current :meth:`execute` pass stops launching new units and
        returns ``interrupted=True``, and every later pass returns
        interrupted immediately (completed points are already durable).
        """
        self._stop_requested = True
        self._stop_signal = signum

    def execute(self, configs: Sequence[BenchmarkConfig],
                labels: Optional[Sequence[str]] = None) -> ExecutionReport:
        """Run every point; never raises for per-point failures."""
        labels = (list(labels) if labels is not None
                  else [f"point{i}" for i in range(len(configs))])
        keys = [self.suite.store_key(config) for config in configs]
        outcomes = [
            PointOutcome(index=i, label=labels[i], key=keys[i])
            for i in range(len(configs))
        ]
        self._stop_signal = (signal.SIGINT if self._stop_requested
                             else None)
        self._abort = False
        self._unit_of = {}
        profile = {"store-lookup": 0.0, "shared-setup": 0.0,
                   "simulate": 0.0, "record": 0.0}
        for stage, seconds in self.profile_base.items():
            profile[stage] = profile.get(stage, 0.0) + seconds
        self.profile = profile
        unique = 0
        old_handlers = self._install_signal_handlers()
        try:
            pending: List[int] = []
            stage_started = time.monotonic()
            for i, found in enumerate(self.suite.lookup_points(configs)):
                if found is not None:
                    self._finish(outcomes[i], STATUS_CACHED, result=found)
                else:
                    pending.append(i)
            profile["store-lookup"] += time.monotonic() - stage_started
            if pending and not self._stop_signal:
                if self.batch:
                    stage_started = time.monotonic()
                    plan = plan_batches(self.suite, configs, pending)
                    units: List[Tuple[int, ...]] = [
                        group.members for group in plan.groups
                    ]
                    precompute_matrices(
                        configs[unit[0]] for unit in units)
                    profile["shared-setup"] += (time.monotonic()
                                                - stage_started)
                    unique = plan.unique
                    self._trace("batch-plan", self.campaign or "campaign",
                                points=plan.points, unique=plan.unique,
                                collapsed=plan.collapsed)
                else:
                    units = [(i,) for i in pending]
                    unique = len(units)
                self._unit_of = {unit[0]: unit for unit in units}
                self.backend.run(
                    ExecutionContext(self, configs, outcomes, units))
        finally:
            self._restore_signal_handlers(old_handlers)
        report = ExecutionReport(
            outcomes=outcomes,
            interrupted=self._stop_signal is not None,
            stop_signal=self._stop_signal,
            batched=self.batch,
            unique_simulations=unique,
            profile=dict(profile),
            backend=self.backend.name,
        )
        self._write_checkpoint(report)
        return report

    # -- signals -----------------------------------------------------------

    def _install_signal_handlers(self) -> Dict[int, object]:
        handlers: Dict[int, object] = {}
        if not self.handle_signals:
            return handlers
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                handlers[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):
                # Not the main thread (or unsupported signal): graceful
                # interruption degrades to the default behavior.
                pass
        return handlers

    def _restore_signal_handlers(self, handlers: Dict[int, object]) -> None:
        for signum, handler in handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _on_signal(self, signum, frame) -> None:
        self._stop_signal = signum

    # -- bookkeeping -------------------------------------------------------

    def _replicate(self, configs, outcomes, unit: Tuple[int, ...],
                   result, attempts: int, wall: float) -> None:
        """Serve a unit's siblings from its representative's result.

        Each sibling gets the representative's payload, converted to a
        ``StoredResult`` once for the whole unit, under its own config
        (byte-identical to simulating it directly — see
        :mod:`repro.campaign.batch`), recorded through one batched
        store write, and finishes ``STATUS_OK`` like any other
        simulated point.
        """
        stored = (result if isinstance(result, StoredResult)
                  else StoredResult.from_sim_result(result))
        clones = [(i, replicate_result(stored, configs[i]))
                  for i in unit[1:]]
        if self.tag_plan is not None:
            name, metas = self.tag_plan
            self.suite.record_points(
                [(configs[i], clone, {name: metas[i]})
                 for i, clone in clones])
        else:
            self.suite.record_points(
                [(configs[i], clone) for i, clone in clones])
        for i, clone in clones:
            self._finish(outcomes[i], STATUS_OK, result=clone,
                         attempts=attempts, wall=wall)

    def _finish(self, outcome: PointOutcome, status: str,
                result: Optional[ResultLike] = None, attempts: int = 0,
                error: Optional[str] = None, tb: Optional[str] = None,
                wall: float = 0.0,
                history: Optional[List[dict]] = None) -> None:
        """Seal one outcome, quarantine failures, emit progress."""
        outcome.status = status
        outcome.result = result
        outcome.attempts = attempts
        outcome.error = error
        outcome.traceback = tb
        outcome.wall_time = wall
        if status == STATUS_FAILED:
            self._trace("quarantine", outcome.label, point=outcome.index,
                        attempts=attempts, error=error)
            if self.suite.store is not None:
                self.suite.store.quarantine_add(outcome.key, {
                    "campaign": self.campaign,
                    "label": outcome.label,
                    "error": error,
                    "traceback": tb,
                    "attempts": attempts,
                    "history": list(history) if history else [],
                    "quarantined_at": time.time(),
                })
            if self.fail_fast:
                self._abort = True
        if self.progress is not None:
            self.progress(outcome)

    def _write_checkpoint(self, report: ExecutionReport) -> None:
        """Publish the campaign's progress snapshot to the store."""
        store = self.suite.store
        if store is None or not self.campaign:
            return
        store.write_checkpoint(self.campaign, {
            "campaign": self.campaign,
            "total": len(report.outcomes),
            "interrupted": report.interrupted,
            "completed": [o.key for o in report.outcomes if o.succeeded],
            "failed": [o.key for o in report.outcomes
                       if o.status == STATUS_FAILED],
            "skipped": [o.key for o in report.outcomes
                        if o.status == STATUS_SKIPPED],
            "batched": report.batched,
            "unique_simulations": report.unique_simulations,
            "backend": report.backend,
            "profile": report.profile,
            "written_at": time.time(),
        })

    def _trace(self, name: str, lane: str, **args) -> None:
        """Emit one CAT_HARNESS marker (wall-clock, zero duration)."""
        if self.tracer is None:
            return
        now = time.time()
        self.tracer.complete(name, CAT_HARNESS, "harness", lane,
                             now, now, **args)
