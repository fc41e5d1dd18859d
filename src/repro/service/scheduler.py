"""The background worker that turns cold tickets into store records.

One daemon thread drains a bounded queue of admitted tickets and runs
them through the existing :class:`~repro.campaign.executor.\
CampaignExecutor` — the same retry/backoff/timeout policy, the same
quarantine ledger, the same batch scheduler — so a point simulated for
a service client is indistinguishable from one simulated by
``repro campaign run`` (same record bytes, same provenance, same
failure handling).

Batching: each drain pass groups its tickets by suite signature
(cluster, slaves, runtime, fault plan) and executes one group per
:class:`~repro.core.suite.MicroBenchmarkSuite`, letting the executor's
equivalence classes collapse simulation-equivalent points. The
executor runs with ``campaign=""`` (no checkpoint churn per drain) and
``handle_signals=False`` (the service owns signal handling; shutdown
goes through :meth:`ColdScheduler.stop`).

Chores: the thread also runs the owner's ``chore`` callable each time
it wakes (at least every :data:`POLL_SECONDS` while idle, and after
every pass). The service's warm-hit counter flush runs there, so no
store write runs on the HTTP event loop.

Shutdown: ``stop(drain=True)`` finishes everything already queued;
``stop(drain=False)`` is the SIGINT path — the in-flight executor pass
stops launching new units (completed points are already durable in the
store), and every unstarted ticket resolves ``cancelled``.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.backend import ExecutionBackend
from repro.campaign.executor import (
    STATUS_FAILED,
    CampaignExecutor,
    RetryPolicy,
)
from repro.service.singleflight import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    SingleFlight,
    Ticket,
)
from repro.store import ResultStore

#: Default bound on the cold-point queue (excess queries get a 503).
DEFAULT_MAX_QUEUE = 256

#: Most tickets one drain pass batches into executor calls.
DRAIN_LIMIT = 64

#: Longest the idle worker waits for a ticket before it runs its chore
#: and checks for shutdown again.
POLL_SECONDS = 0.05


class ColdScheduler:
    """Single background thread executing admitted cold tickets."""

    def __init__(
        self,
        store: ResultStore,
        flight: SingleFlight,
        policy: Optional[RetryPolicy] = None,
        jobs: int = 1,
        max_queue: int = DEFAULT_MAX_QUEUE,
        execution_backend: Optional[ExecutionBackend] = None,
        chore: Optional[Callable[[], None]] = None,
    ):
        """Wire the scheduler to a store and the single-flight table.

        ``execution_backend`` swaps the engine cold units run on
        (default: a per-pass :class:`LocalBackend`); a supplied backend
        is shared across drain passes and *borrowed* — the caller owns
        its lifecycle. ``chore`` runs on the worker thread each time it
        wakes.
        """
        self.store = store
        self.flight = flight
        self.policy = policy if policy is not None else RetryPolicy()
        self.jobs = jobs
        self.execution_backend = execution_backend
        self.chore = chore
        self._queue: "queue.Queue[Ticket]" = queue.Queue(maxsize=max_queue)
        self._stop = threading.Event()
        self._drain = True
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._executor: Optional[CampaignExecutor] = None
        self._running = 0
        #: Points this scheduler resolved, by terminal state.
        self.resolved: Dict[str, int] = {DONE: 0, FAILED: 0, CANCELLED: 0}
        #: Cold units simulated over the scheduler's lifetime.
        self.cold_units = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Launch the worker thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-service-scheduler", daemon=True)
        self._thread.start()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Stop the worker.

        ``drain=True`` finishes everything already queued first;
        ``drain=False`` interrupts the in-flight executor pass (its
        running unit completes and is recorded — completed points stay
        durable) and cancels every unstarted ticket.
        """
        self._drain = drain
        self._stop.set()
        if not drain:
            with self._lock:
                if self._executor is not None:
                    self._executor.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def depth(self) -> int:
        """Tickets admitted but not yet picked up by the worker."""
        return self._queue.qsize()

    @property
    def alive(self) -> bool:
        """Whether the worker thread is running."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def running(self) -> int:
        """Tickets currently inside an executor pass."""
        with self._lock:
            return self._running

    def scheduler_stats(self) -> Dict[str, object]:
        """Execution-depth snapshot for ``BenchmarkService.stats()``."""
        backend = self.execution_backend
        return {
            "queued": self.depth,
            "running": self.running,
            "cold_units": self.cold_units,
            "backend": backend.name if backend is not None else "local",
        }

    # -- admission ---------------------------------------------------------

    def submit(self, ticket: Ticket) -> bool:
        """Enqueue one created ticket; False when the queue is full."""
        if self._stop.is_set():
            return False
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            return False
        return True

    # -- worker ------------------------------------------------------------

    def _run(self) -> None:
        while True:
            if self.chore is not None:
                self.chore()
            try:
                first = self._queue.get(timeout=POLL_SECONDS)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            tickets = [first]
            while len(tickets) < DRAIN_LIMIT:
                try:
                    tickets.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            if self._stop.is_set() and not self._drain:
                self._cancel(tickets)
                continue  # keep looping: cancel whatever else is queued
            for group in self._group(tickets):
                if self._stop.is_set() and not self._drain:
                    self._cancel(group)
                    continue
                self._execute(group)

    @staticmethod
    def _group(tickets: List[Ticket]) -> List[List[Ticket]]:
        """Split one drain pass by suite signature, arrival order."""
        groups: Dict[Tuple[str, ...], List[Ticket]] = {}
        for ticket in tickets:
            groups.setdefault(ticket.query.signature, []).append(ticket)
        return list(groups.values())

    def _execute(self, tickets: List[Ticket]) -> None:
        """Run one signature group through the campaign executor."""
        executor = CampaignExecutor(
            tickets[0].query.campaign.suite(self.store),
            policy=self.policy,
            jobs=self.jobs,
            campaign="",            # no checkpoint churn per drain pass
            handle_signals=False,   # the service owns signal handling
            backend=self.execution_backend,
        )
        with self._lock:
            self._executor = executor
            self._running = len(tickets)
        for ticket in tickets:
            ticket.state = RUNNING
        try:
            report = executor.execute(
                [t.query.config for t in tickets],
                labels=[t.query.label for t in tickets])
        except Exception as exc:  # never kill the worker thread
            for ticket in tickets:
                self._resolve(ticket, FAILED,
                              f"{type(exc).__name__}: {exc}")
            return
        finally:
            with self._lock:
                self._executor = None
                self._running = 0
        self.cold_units += report.unique_simulations
        for ticket, outcome in zip(tickets, report.outcomes):
            if outcome.succeeded:
                self._resolve(ticket, DONE)
            elif outcome.status == STATUS_FAILED:
                self._resolve(ticket, FAILED, outcome.error)
            else:  # skipped: interrupted before this unit launched
                self._resolve(ticket, CANCELLED,
                              "service shut down before execution")

    def _cancel(self, tickets: List[Ticket]) -> None:
        for ticket in tickets:
            self._resolve(ticket, CANCELLED,
                          "service shut down before execution")

    def _resolve(self, ticket: Ticket, state: str,
                 error: Optional[str] = None) -> None:
        self.resolved[state] += 1
        self.flight.resolve(ticket, state, error)
