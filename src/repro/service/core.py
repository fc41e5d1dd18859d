"""`BenchmarkService`: the transport-independent service core.

Everything the HTTP app does goes through this object, and tests drive
it directly — no sockets needed for the contract tests. The core is
plain thread-safe synchronous code (the asyncio front end calls it via
``asyncio.to_thread``), built from three pieces:

* the :class:`~repro.store.ResultStore` (either backend) for warm
  answers — served as the record's canonical bytes, so a service
  response is byte-identical to ``repro store export``'s line for the
  same key;
* a :class:`~repro.service.singleflight.SingleFlight` table so N
  concurrent queries for one cold point cost one simulation;
* a :class:`~repro.service.scheduler.ColdScheduler` thread pushing
  cold points through the campaign executor.

Accounting: the service counts its own request-level traffic (warm
hits, cold misses, coalesced joins) and flushes warm hits into the
store's lifetime ``hits`` counter in batches — one counter write per
:data:`HIT_FLUSH_THRESHOLD` requests instead of one per request, which
is what keeps the warm path fast enough for the traffic benchmark.
Cold points are *not* double-counted: the executor's store lookup
already records their miss, exactly as a campaign run would.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.executor import RetryPolicy
from repro.service.query import parse_point_query
from repro.service.scheduler import DEFAULT_MAX_QUEUE, ColdScheduler
from repro.service.singleflight import (
    CANCELLED,
    DONE,
    FAILED,
    SingleFlight,
    Ticket,
)
from repro.store import ResultStore, dump_record_text, hit_rate

#: Warm hits accumulated before one batched store-counter write.
HIT_FLUSH_THRESHOLD = 64

#: Longest a ``wait=true`` query blocks before returning the ticket.
MAX_WAIT_SECONDS = 300.0


@dataclass
class ServiceResponse:
    """One transport-independent response.

    ``payload`` is either pre-serialized canonical record bytes (warm
    hits — served verbatim so byte-identity is provable) or a dict the
    transport JSON-encodes.
    """

    status: int
    payload: Union[bytes, dict] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the response carries a final result."""
        return self.status == 200


class BenchmarkService:
    """Query front end over a result store and the campaign executor."""

    def __init__(
        self,
        store: Union[ResultStore, str, Path],
        policy: Optional[RetryPolicy] = None,
        jobs: int = 1,
        batch: Optional[bool] = None,
        max_queue: int = DEFAULT_MAX_QUEUE,
        execution_backend=None,
    ):
        """Bind the service to a store root (either backend).

        ``execution_backend`` is handed to the cold scheduler (e.g. a
        started :class:`~repro.campaign.pool.PoolBackend`); it is
        borrowed — the caller closes it after :meth:`stop`.
        """
        self.store = (store if isinstance(store, ResultStore)
                      else ResultStore(store))
        self.flight = SingleFlight()
        self.scheduler = ColdScheduler(
            self.store, self.flight, policy=policy, jobs=jobs,
            batch=batch, max_queue=max_queue,
            execution_backend=execution_backend)
        self.started_at = time.time()
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "requests": 0, "warm_hits": 0, "cold_misses": 0,
            "coalesced": 0, "not_found": 0, "rejected": 0,
            "bad_requests": 0,
        }
        self._pending_hits = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the background scheduler (idempotent)."""
        self.scheduler.start()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Shut down: stop the scheduler, flush counters, close handles.

        ``drain=False`` is the SIGINT path — in-flight work finishes
        its current unit (durable in the store), unstarted tickets
        resolve ``cancelled``.
        """
        self.scheduler.stop(drain=drain, timeout=timeout)
        self._flush_hits()
        self.store.close()

    # -- accounting --------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._counter_lock:
            self._counters[name] += 1

    def _record_warm_hit(self) -> None:
        """Count one warm hit; flush to the store counter in batches."""
        flush = 0
        with self._counter_lock:
            self._counters["warm_hits"] += 1
            self._pending_hits += 1
            if self._pending_hits >= HIT_FLUSH_THRESHOLD:
                flush, self._pending_hits = self._pending_hits, 0
        if flush:
            self.store.backend.bump_counters({"hits": flush})

    def _flush_hits(self) -> None:
        """Push accumulated warm hits into the store's hit counter."""
        with self._counter_lock:
            flush, self._pending_hits = self._pending_hits, 0
        if flush:
            self.store.backend.bump_counters({"hits": flush})

    # -- queries -----------------------------------------------------------

    def query_point(self, body: object) -> ServiceResponse:
        """Resolve one ``POST /v1/points`` body.

        Warm points return 200 with the record's canonical bytes.
        Cold points are admitted to the single-flight table, enqueued
        (once), and answered 202 with the ticket — unless the body
        carries ``"wait": true`` (or a second count), in which case the
        call blocks until the ticket resolves and returns the final
        result like a warm hit.
        """
        self._count("requests")
        if not isinstance(body, dict):
            self._count("bad_requests")
            return ServiceResponse(400, {
                "error": f"request body must be a JSON object, got "
                         f"{type(body).__name__}"})
        body = dict(body)
        wait = body.pop("wait", None)
        try:
            timeout = self._wait_timeout(wait)
        except ValueError as exc:
            self._count("bad_requests")
            return ServiceResponse(400, {"error": str(exc)})
        try:
            query = parse_point_query(body)
        except ValueError as exc:
            self._count("bad_requests")
            return ServiceResponse(400, {"error": str(exc)})
        record = self.store.fetch_record(query.key)
        if record is not None:
            self._record_warm_hit()
            return ServiceResponse(
                200, dump_record_text(record).encode("utf-8"))
        ticket, created = self.flight.admit(query.key, query)
        if created:
            # The store read above may have missed just before another
            # request's ticket stored the record and left the table.
            record = self.store.fetch_record(query.key)
            if record is not None:
                self.flight.resolve(ticket, DONE)
                self._record_warm_hit()
                return ServiceResponse(
                    200, dump_record_text(record).encode("utf-8"))
            self._count("cold_misses")
            if not self.scheduler.submit(ticket):
                self.flight.resolve(ticket, CANCELLED,
                                    "cold-point queue is full")
                self._count("rejected")
                return ServiceResponse(503, ticket.snapshot())
        elif ticket.state != FAILED or not ticket.resolved:
            # Done and cancelled tickets leave the table when they
            # resolve, so only a failed one can have resolved before
            # this request joined it.
            self._count("coalesced")
        if timeout is not None and not ticket.resolved:
            ticket.wait(timeout)
        if ticket.resolved and ticket.state not in (FAILED, CANCELLED):
            record = self.store.fetch_record(query.key)
            if record is not None:
                return ServiceResponse(
                    200, dump_record_text(record).encode("utf-8"))
        return self._ticket_response(ticket)

    def lookup(self, key: str) -> ServiceResponse:
        """Resolve one ``GET /v1/points/<key>``.

        A stored record answers 200 (canonical bytes); an in-flight or
        failed ticket answers with its state; anything else is a 404 —
        the service cannot reconstruct a query from a bare key, so cold
        keys must come in through ``POST /v1/points``.
        """
        self._count("requests")
        record = self.store.fetch_record(key)
        if record is not None:
            self._record_warm_hit()
            return ServiceResponse(
                200, dump_record_text(record).encode("utf-8"))
        ticket = self.flight.get(key)
        if ticket is not None:
            return self._ticket_response(ticket)
        self._count("not_found")
        return ServiceResponse(404, {
            "error": "unknown point key; cold points must be queried "
                     "by coordinates via POST /v1/points",
            "key": key,
        })

    @staticmethod
    def _wait_timeout(wait: object) -> Optional[float]:
        """The blocking budget a ``wait`` field asks for (None = don't)."""
        if wait is None or wait is False:
            return None
        if wait is True:
            return MAX_WAIT_SECONDS
        try:
            seconds = float(wait)
        except (TypeError, ValueError):
            raise ValueError(
                f"wait must be a boolean or seconds, got {wait!r}"
            ) from None
        if seconds <= 0:
            raise ValueError(f"wait seconds must be > 0, got {seconds:g}")
        return min(seconds, MAX_WAIT_SECONDS)

    def _ticket_response(self, ticket: Ticket) -> ServiceResponse:
        """Map a ticket's state to (status, snapshot)."""
        if ticket.state == FAILED:
            return ServiceResponse(500, ticket.snapshot())
        if ticket.state == CANCELLED:
            return ServiceResponse(503, ticket.snapshot())
        return ServiceResponse(202, ticket.snapshot())

    # -- introspection -----------------------------------------------------

    def stats(self, refresh: bool = False) -> Dict[str, object]:
        """The ``/v1/stats`` document.

        The base keys are exactly ``repro store stats --json`` (same
        names, same ``hit_rate``-is-null-when-unlooked-up rule, via the
        shared :func:`repro.store.hit_rate` helper); the service's own
        request counters, queue depth and in-flight count ride along
        under ``"service"``. Store stats are served from the cached
        snapshot (``refresh=True`` re-reads disk) so a hot stats
        endpoint doesn't walk the store per request.
        """
        self._flush_hits()
        stats = self.store.stats(cached=not refresh)
        stats["hit_rate"] = hit_rate(stats)
        with self._counter_lock:
            service: Dict[str, object] = dict(self._counters)
        service.update(
            in_flight=self.flight.in_flight(),
            failed_tickets=self.flight.failed(),
            queue_depth=self.scheduler.depth,
            resolved=dict(self.scheduler.resolved),
            uptime_seconds=round(time.time() - self.started_at, 3),
            scheduler=self.scheduler.scheduler_stats(),
        )
        stats["service"] = service
        return stats

    def healthz(self) -> Dict[str, object]:
        """The liveness document (cheap: no disk reads)."""
        healthy = (self.scheduler.alive
                   and not self.store.backend.read_only)
        return {
            "status": "ok" if healthy else "degraded",
            "backend": self.store.backend.scheme,
            "root": str(self.store.root),
            "scheduler_alive": self.scheduler.alive,
            "read_only": self.store.backend.read_only,
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }
