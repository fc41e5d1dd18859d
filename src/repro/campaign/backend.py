"""Pluggable execution substrates for the campaign executor.

:class:`~repro.campaign.executor.CampaignExecutor` owns campaign
*semantics* — store lookup, batch planning, retry/backoff policy,
quarantine, checkpoints, progress, tracing. *Where* a cold point-unit
actually simulates is delegated to an :class:`ExecutionBackend`:

* :class:`~repro.campaign.pool.LocalBackend` — the default; runs units
  inline (fast path) or on a pool of workers forked for the pass.
* :class:`~repro.campaign.pool.PoolBackend` — a stdlib-socket worker
  pool: ``repro worker --connect HOST:PORT`` processes (local, SSH'd,
  or hand-launched on remote hosts) claim units under leases with
  heartbeats; a dead or silent worker gets its unit reassigned to a
  live one instead of quarantined (see ``docs/DISTRIBUTED.md``).

Backends drive everything through an :class:`ExecutionContext`, the
narrow waist the executor hands to :meth:`ExecutionBackend.run`. The
context exposes the unit list and per-point payloads, and routes every
outcome back through the executor — so retries, backoff jitter,
quarantine (with per-attempt history), replication of batch siblings,
progress and trace markers behave identically on every substrate.
Worker processes of both backends run the chaos hooks of
:mod:`repro.campaign.chaos`.
"""

from __future__ import annotations

import abc
import signal
import time
from typing import Dict, List, Optional, Tuple

#: Point outcome statuses (shared by the executor and all backends).
STATUS_OK = "ok"            #: simulated this run
STATUS_CACHED = "cached"    #: served from memo cache / disk store
STATUS_FAILED = "failed"    #: exhausted retries; quarantined
STATUS_SKIPPED = "skipped"  #: never ran (interrupt or fail-fast abort)


class ExecutionContext:
    """One execute pass's view of the executor, as backends see it.

    The context is the only surface a backend touches: it yields the
    cold units, hands out picklable payloads, and funnels results and
    failures back through the executor so policy (retry, backoff
    jitter, quarantine with attempt history, replication, progress,
    tracing, profiling) is applied identically on every substrate.
    """

    def __init__(self, executor, configs, outcomes,
                 units: List[Tuple[int, ...]]):
        self._executor = executor
        self.configs = configs
        self.outcomes = outcomes
        #: Cold units (tuples of point indices; first member simulates,
        #: the rest replicate from its result).
        self.units = units
        self.policy = executor.policy
        self.suite = executor.suite
        self.campaign = executor.campaign
        #: Per-representative attempt history (quarantine ledger feed).
        self._history: Dict[int, List[dict]] = {}

    # -- introspection -----------------------------------------------------

    @property
    def store(self):
        """The suite's result store (None for uncached campaigns)."""
        return self.suite.store

    def key(self, index: int) -> str:
        """The store key of one grid point."""
        return self.outcomes[index].key

    def label(self, index: int) -> str:
        """The human label of one grid point."""
        return self.outcomes[index].label

    def unit_of(self, rep: int) -> Tuple[int, ...]:
        """The equivalence-class unit a representative stands for."""
        return self._executor._unit_of.get(rep, (rep,))

    def should_stop(self) -> bool:
        """Whether the pass was interrupted (signal / fail-fast)."""
        return (self._executor._stop_signal is not None
                or self._executor._abort)

    # -- work --------------------------------------------------------------

    def payload(self, index: int) -> tuple:
        """One point's picklable simulation payload."""
        return self.suite.point_payload(self.configs[index])

    def simulate(self, index: int):
        """Simulate one point in-process (through suite wrappers)."""
        return self.suite.simulate_point(self.configs[index])

    # -- outcome routing ---------------------------------------------------

    def interrupt(self, signum: int = signal.SIGINT) -> None:
        """Record an interruption (the backend saw SIGINT/KI)."""
        self._executor._stop_signal = signum

    def complete(self, rep: int, result, attempt: int, wall: float,
                 record: bool = False) -> None:
        """Seal one successful unit: finish, replicate, progress.

        ``record=True`` writes the result to the store first — for
        results that arrived from another process (the inline path
        already recorded through ``suite.simulate_point``).
        """
        executor = self._executor
        if record:
            self.suite.record_points([(self.configs[rep], result)])
        executor._finish(self.outcomes[rep], STATUS_OK, result=result,
                         attempts=attempt, wall=wall)
        unit = self.unit_of(rep)
        if len(unit) > 1:
            stage_started = time.monotonic()
            executor._replicate(self.configs, self.outcomes, unit, result,
                                attempt, wall)
            executor.profile["record"] += time.monotonic() - stage_started

    def fail_attempt(self, rep: int, attempt: int, error: str,
                     tb: Optional[str] = None, kind: str = "error",
                     worker: Optional[str] = None, wall: float = 0.0,
                     total_wall: Optional[float] = None) -> Optional[float]:
        """Route one failed attempt: backoff-retry or quarantine.

        Appends the attempt to the unit's history, then either returns
        the (jittered) backoff delay before the next attempt — the
        backend owns re-dispatch — or quarantines every member of the
        unit (history included in the ledger entry) and returns None.
        """
        self.note(rep, attempt, kind, error, worker=worker, wall=wall)
        executor = self._executor
        outcome = self.outcomes[rep]
        if attempt <= self.policy.retries and not self.should_stop():
            delay = self.policy.delay(attempt, key=outcome.key)
            executor._trace("retry", outcome.label, point=rep,
                            attempt=attempt, error=error, delay=delay)
            return delay
        final_wall = wall if total_wall is None else total_wall
        for i in self.unit_of(rep):
            executor._finish(self.outcomes[i], STATUS_FAILED,
                             attempts=attempt, error=error, tb=tb,
                             wall=final_wall, history=self.history(rep))
        return None

    # -- history / telemetry ----------------------------------------------

    def history(self, rep: int) -> List[dict]:
        """The (mutable) attempt history of one unit representative."""
        return self._history.setdefault(rep, [])

    def note(self, rep: int, attempt: int, kind: str, error: str,
             worker: Optional[str] = None, wall: float = 0.0) -> dict:
        """Append one event to a unit's attempt history."""
        entry = {
            "attempt": attempt,
            "kind": kind,
            "error": error,
            "worker": worker,
            "wall_time": round(wall, 6),
            "at": time.time(),
        }
        self.history(rep).append(entry)
        return entry

    def trace(self, name: str, index: int, **args) -> None:
        """Emit one CAT_HARNESS marker on the point's label lane."""
        self._executor._trace(name, self.outcomes[index].label,
                              point=index, **args)

    def add_profile(self, stage: str, seconds: float) -> None:
        """Accumulate wall-clock seconds into one profile stage."""
        profile = self._executor.profile
        profile[stage] = profile.get(stage, 0.0) + seconds


class ExecutionBackendError(RuntimeError):
    """The execution substrate itself failed (not a per-point error).

    Raised for campaign-fatal infrastructure conditions — e.g. a pool
    coordinator whose last worker died with units outstanding and no
    replacement connected within the connect timeout.
    """


class ExecutionBackend(abc.ABC):
    """Where cold point-units run; the executor supplies the policy."""

    #: Short name surfaced in reports, stats and checkpoints.
    name = "backend"

    @abc.abstractmethod
    def run(self, ctx: ExecutionContext) -> None:
        """Execute every unit in ``ctx.units``, routing outcomes back.

        Must return (never raise) on per-unit failures — those go
        through :meth:`ExecutionContext.fail_attempt` — and must honour
        :meth:`ExecutionContext.should_stop` between dispatches.
        """

    def close(self) -> None:
        """Release backend resources (idempotent; default no-op)."""
