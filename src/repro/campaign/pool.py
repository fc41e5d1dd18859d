"""Distributed campaign execution: the socket worker-pool coordinator.

:class:`PoolBackend` fans a campaign's cold point-units over a pool of
workers. Local ones (``workers=N``) are forked from the coordinator,
so they start with the package already imported and say hello within
milliseconds; others run ``repro worker`` by hand or over SSH on
remote hosts (``workers=0`` plus the printed address; see
``docs/DISTRIBUTED.md``). Both serve units through the same
:func:`~repro.campaign.worker.run_worker` loop. Everything is stdlib:
a non-blocking listener, a :mod:`selectors` event loop, and the
length-prefixed pickle framing of :mod:`repro.campaign.wire`.

Fault tolerance is the point. Every dispatched unit is held under a
**lease** that the worker renews with heartbeats while it simulates:

* a worker that *dies* (SIGKILL, OOM, network partition → EOF), goes
  *silent* past its lease or sends a frame outside the wire protocol
  is declared lost and its unit is **reassigned** to a live worker —
  an infrastructure failure is not the simulation's fault, so
  reassignment does not consume the unit's
  :class:`~repro.campaign.executor.RetryPolicy` budget (a
  :data:`REASSIGN_LIMIT` stops pathological crash loops);
* a unit whose simulation *raises* on the worker fails through the
  exact same retry/backoff/quarantine path as the local backend;
* a unit that exceeds ``policy.timeout`` while its worker heartbeats
  on (a hung simulation, not a hung host) counts as a retryable
  attempt failure, and the stuck worker is dropped;
* a lost or dropped worker that this pool started is replaced: its
  process is killed if still alive and one successor is forked, unless
  the pass is draining — even when it held the pass's last unit;
* SIGINT drains: no new dispatches, in-flight units get
  ``drain_timeout`` seconds to finish (their results are recorded),
  the rest checkpoint as skipped for ``repro campaign resume``.

Replays are idempotent by construction: the content-addressed store
writes the same bytes for the same point no matter which worker — or
how many workers — computed it, so a reassigned unit that was secretly
completed by its "dead" worker is a byte-identical no-op.

Active leases are mirrored into the store's lease ledger
(``repro store stats`` counts them) so an operator can see which hosts
hold which points mid-campaign; completed or quarantined units release
their lease.
"""

from __future__ import annotations

import gc
import multiprocessing
import selectors
import signal
import socket
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.process import BaseProcess
from typing import Dict, List, Optional, Tuple

from repro.campaign.backend import (
    ExecutionBackend,
    ExecutionBackendError,
    ExecutionContext,
)
from repro.campaign.wire import (
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_OK,
    MSG_SHUTDOWN,
    MSG_UNIT,
    FrameDecoder,
    FrameError,
    send_message,
)
from repro.campaign.worker import serve_units
from repro.hadoop.result import SimJobResult

#: Default lease duration (seconds without a heartbeat before a
#: worker's unit is reassigned).
DEFAULT_LEASE_SECONDS = 15.0

#: Default budget for in-flight units to finish after SIGINT.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: How long the coordinator tolerates having zero live workers while
#: units are outstanding before declaring the campaign unrunnable.
DEFAULT_CONNECT_TIMEOUT = 60.0

#: Worker losses one unit absorbs before they start counting as
#: ordinary attempt failures (crash-loop circuit breaker).
REASSIGN_LIMIT = 3

#: Per-socket I/O timeout (bounds a blocking sendall to a stuck peer).
_IO_TIMEOUT = 30.0


@dataclass
class _Assignment:
    """One unit currently leased to one worker."""

    rep: int
    attempt: int      # 1-based policy attempt
    dispatches: int   # 0-based count of prior dispatches (chaos feed)
    token: tuple
    started: float
    lease_expires: float
    deadline: Optional[float]


@dataclass
class _PoolWorker:
    """One connected worker process."""

    sock: socket.socket
    ident: str
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    greeted: bool = False
    #: Process id from the hello; matches the workers this pool started.
    pid: Optional[int] = None
    unit: Optional[_Assignment] = None


@dataclass
class _PendingUnit:
    """One unit awaiting (re)dispatch; ``ready_at`` implements backoff."""

    rep: int
    attempt: int
    dispatches: int
    ready_at: float = 0.0


class PoolBackend(ExecutionBackend):
    """Lease-based execution over a TCP pool of ``repro worker``s."""

    name = "pool"

    def __init__(
        self,
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        workers: int = 0,
        lease: float = DEFAULT_LEASE_SECONDS,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        """Configure (but don't yet bind) the coordinator.

        ``workers=N`` forks N local workers from this process on first
        use; ``workers=0`` expects external workers to connect to
        :attr:`address` (print it with :meth:`ensure_started`).
        """
        if lease <= 0:
            raise ValueError(f"lease must be > 0, got {lease}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.bind = bind
        self.workers = workers
        self.lease = lease
        self.drain_timeout = drain_timeout
        self.connect_timeout = connect_timeout
        self.counters: Dict[str, int] = {
            "workers_joined": 0, "workers_lost": 0, "dispatched": 0,
            "reassignments": 0, "leases_expired": 0, "timeouts": 0,
        }
        self._listener: Optional[socket.socket] = None
        self._sel: Optional[selectors.BaseSelector] = None
        self._conns: Dict[socket.socket, _PoolWorker] = {}
        self._procs: List[BaseProcess] = []
        self._losses: Dict[int, int] = {}
        self._epoch = 0

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        """Bind the listener and fork local workers (idempotent)."""
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self.bind)
        listener.listen(64)
        listener.setblocking(False)
        self._listener = listener
        self._sel = selectors.DefaultSelector()
        self._sel.register(listener, selectors.EVENT_READ, "listener")
        for _ in range(self.workers):
            self._spawn_worker()

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) workers connect to (binds on first call)."""
        self.ensure_started()
        host, port = self._listener.getsockname()[:2]
        return host, port

    def close(self) -> None:
        """Shut the pool down: ask workers to exit, reap local ones."""
        for worker in list(self._conns.values()):
            try:
                send_message(worker.sock, (MSG_SHUTDOWN,))
            except OSError:
                pass
            self._close_worker(worker)
        if self._listener is not None:
            try:
                self._sel.unregister(self._listener)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            self._listener.close()
            self._listener = None
        if self._sel is not None:
            self._sel.close()
            self._sel = None
        for proc in self._procs:
            if proc.exitcode is None:
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.exitcode is None:  # pragma: no cover - stubborn
                proc.kill()
                proc.join(timeout=2.0)
        self._procs = []

    # -- main loop ---------------------------------------------------------

    def run(self, ctx: ExecutionContext) -> None:
        self.ensure_started()
        self._epoch += 1
        self._losses = {}
        pending: List[_PendingUnit] = [
            _PendingUnit(unit[0], 1, 0) for unit in ctx.units
        ]
        active: Dict[int, _PoolWorker] = {}
        drain_deadline: Optional[float] = None
        no_worker_since = time.monotonic()
        while pending or active:
            now = time.monotonic()
            if ctx.should_stop():
                # Drain: nothing new launches; in-flight units get
                # drain_timeout seconds to land, then are abandoned
                # (checkpointed as skipped — resume re-runs them).
                pending = []
                if not active:
                    break
                if drain_deadline is None:
                    drain_deadline = now + self.drain_timeout
                elif now >= drain_deadline:
                    self._abandon(ctx, active)
                    break
            else:
                self._dispatch(ctx, pending, active, now)
            for key, _ in self._sel.select(0.05):
                if key.data == "listener":
                    self._accept()
                else:
                    self._read_worker(ctx, key.data, pending, active)
            now = time.monotonic()
            self._check_leases(ctx, pending, active, now)
            self._check_timeouts(ctx, pending, active, now)
            if self._conns:
                no_worker_since = now
            elif ((pending or active)
                  and now - no_worker_since > self.connect_timeout):
                raise ExecutionBackendError(
                    f"no live workers for {self.connect_timeout:g} s with "
                    f"{len(pending) + len(active)} unit(s) outstanding "
                    f"(listening on {self.address[0]}:{self.address[1]})")

    # -- dispatch ----------------------------------------------------------

    def _heartbeat_secs(self) -> float:
        """How often workers must heartbeat (4 beats per lease)."""
        return max(0.2, min(self.lease / 4.0, 5.0))

    def _dispatch(self, ctx: ExecutionContext,
                  pending: List[_PendingUnit],
                  active: Dict[int, _PoolWorker], now: float) -> None:
        while pending:
            worker = next(
                (w for w in self._conns.values()
                 if w.greeted and w.unit is None), None)
            if worker is None:
                return
            slot = next((p for p in pending if p.ready_at <= now), None)
            if slot is None:
                return
            pending.remove(slot)
            token = (self._epoch, slot.rep, slot.dispatches)
            try:
                send_message(worker.sock, (
                    MSG_UNIT, token, slot.rep, slot.dispatches,
                    self._heartbeat_secs(), ctx.payload(slot.rep)))
            except OSError as exc:
                pending.append(slot)
                self._worker_lost(ctx, worker, pending, active,
                                  f"send failed: {exc}")
                continue
            worker.unit = _Assignment(
                rep=slot.rep, attempt=slot.attempt,
                dispatches=slot.dispatches, token=token, started=now,
                lease_expires=now + self.lease,
                deadline=(now + ctx.policy.timeout
                          if ctx.policy.timeout is not None else None))
            active[slot.rep] = worker
            self.counters["dispatched"] += 1
            ctx.trace("dispatch", slot.rep, worker=worker.ident,
                      attempt=slot.attempt, dispatch=slot.dispatches)
            self._lease_write(ctx, worker)

    # -- socket events -----------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - listener torn down
                return
            conn.settimeout(_IO_TIMEOUT)
            worker = _PoolWorker(sock=conn, ident=f"{addr[0]}:{addr[1]}")
            self._conns[conn] = worker
            self._sel.register(conn, selectors.EVENT_READ, worker)

    def _read_worker(self, ctx: ExecutionContext, worker: _PoolWorker,
                     pending: List[_PendingUnit],
                     active: Dict[int, _PoolWorker]) -> None:
        try:
            data = worker.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError, socket.timeout):
            return
        except OSError:
            data = b""
        if not data:
            self._worker_lost(ctx, worker, pending, active,
                              "connection closed")
            return
        worker.decoder.feed(data)
        try:
            for message in worker.decoder.drain():
                self._handle_message(ctx, worker, message, pending, active)
                if worker.sock not in self._conns:
                    return  # dropped while handling
        except FrameError as exc:
            self._worker_lost(ctx, worker, pending, active,
                              f"protocol error: {exc}")

    def _handle_message(self, ctx: ExecutionContext, worker: _PoolWorker,
                        message, pending: List[_PendingUnit],
                        active: Dict[int, _PoolWorker]) -> None:
        """Act on one message; a result of the wrong type raises
        :class:`FrameError` before anything is recorded."""
        tag = message[0]
        now = time.monotonic()
        if tag == MSG_HELLO:
            info = message[1]
            if isinstance(info, dict):
                worker.ident = str(info.get("worker") or worker.ident)
                worker.pid = info.get("pid")
            if not worker.greeted:
                worker.greeted = True
                self.counters["workers_joined"] += 1
            return
        if tag == MSG_HEARTBEAT:
            assignment = worker.unit
            if assignment is not None and assignment.token == message[1]:
                assignment.lease_expires = now + self.lease
            return
        if tag == MSG_OK:
            _tag, token, result = message
            if not isinstance(result, SimJobResult):
                raise FrameError(f"result is a {type(result).__name__}, "
                                 f"not a SimJobResult")
            assignment = self._claim(worker, token)
            if assignment is None:
                return  # stale (abandoned epoch); store stays correct
            active.pop(assignment.rep, None)
            wall = now - assignment.started
            ctx.add_profile("simulate", wall)
            ctx.complete(assignment.rep, result, assignment.attempt, wall,
                         record=True)
            self._lease_release(ctx, assignment.rep)
            return
        if tag == MSG_ERROR:
            _tag, token, error, tb = message
            if not (isinstance(error, str)
                    and (tb is None or isinstance(tb, str))):
                raise FrameError("error message or traceback is not text")
            assignment = self._claim(worker, token)
            if assignment is None:
                return
            active.pop(assignment.rep, None)
            delay = ctx.fail_attempt(
                assignment.rep, assignment.attempt, error, tb=tb,
                kind="error", worker=worker.ident,
                wall=now - assignment.started)
            if delay is not None:
                pending.append(_PendingUnit(
                    assignment.rep, assignment.attempt + 1,
                    assignment.dispatches + 1, now + delay))
            self._lease_release(ctx, assignment.rep)

    @staticmethod
    def _claim(worker: _PoolWorker, token) -> Optional[_Assignment]:
        """Match a result to the worker's assignment; drop stale ones."""
        assignment = worker.unit
        worker.unit = None
        if assignment is None or assignment.token != token:
            return None
        return assignment

    # -- liveness ----------------------------------------------------------

    def _check_leases(self, ctx: ExecutionContext,
                      pending: List[_PendingUnit],
                      active: Dict[int, _PoolWorker], now: float) -> None:
        for worker in list(self._conns.values()):
            assignment = worker.unit
            if assignment is not None and now >= assignment.lease_expires:
                self.counters["leases_expired"] += 1
                self._worker_lost(
                    ctx, worker, pending, active,
                    f"lease expired after {self.lease:g} s without a "
                    f"heartbeat", expired=True)

    def _check_timeouts(self, ctx: ExecutionContext,
                        pending: List[_PendingUnit],
                        active: Dict[int, _PoolWorker], now: float) -> None:
        """Enforce policy.timeout on heartbeating-but-hung simulations."""
        if ctx.policy.timeout is None:
            return
        for worker in list(self._conns.values()):
            assignment = worker.unit
            if (assignment is None or assignment.deadline is None
                    or now < assignment.deadline):
                continue
            worker.unit = None
            active.pop(assignment.rep, None)
            self.counters["timeouts"] += 1
            if worker.greeted:
                self.counters["workers_lost"] += 1
            ident = worker.ident
            self._close_worker(worker)
            ctx.trace("timeout", assignment.rep, attempt=assignment.attempt,
                      timeout=ctx.policy.timeout)
            delay = ctx.fail_attempt(
                assignment.rep, assignment.attempt,
                f"point timed out after {ctx.policy.timeout:g} s "
                f"(attempt {assignment.attempt})", kind="timeout",
                worker=ident, wall=now - assignment.started)
            if delay is not None:
                pending.append(_PendingUnit(
                    assignment.rep, assignment.attempt + 1,
                    assignment.dispatches + 1, now + delay))
            self._lease_release(ctx, assignment.rep)
            self._respawn(ctx, worker)

    def _worker_lost(self, ctx: ExecutionContext, worker: _PoolWorker,
                     pending: List[_PendingUnit],
                     active: Dict[int, _PoolWorker], reason: str,
                     expired: bool = False) -> None:
        """Drop a dead/silent worker; reassign its unit to the pool.

        Reassignment is free with respect to the retry policy — the
        simulation never got to fail — until the unit has burned
        through :data:`REASSIGN_LIMIT` workers, after which further losses
        count as attempt failures (retry/backoff/quarantine as usual).
        """
        assignment = worker.unit
        worker.unit = None
        if worker.greeted:
            self.counters["workers_lost"] += 1
        self._close_worker(worker)
        self._respawn(ctx, worker)
        if assignment is None:
            return
        active.pop(assignment.rep, None)
        self._lease_release(ctx, assignment.rep)
        if ctx.should_stop():
            return  # draining: the unit checkpoints as skipped
        now = time.monotonic()
        kind = "lease-expired" if expired else "worker-lost"
        losses = self._losses.get(assignment.rep, 0) + 1
        self._losses[assignment.rep] = losses
        if losses > REASSIGN_LIMIT:
            delay = ctx.fail_attempt(
                assignment.rep, assignment.attempt,
                f"unit lost its worker {losses} times (last: {reason})",
                kind=kind, worker=worker.ident,
                wall=now - assignment.started)
            if delay is not None:
                pending.append(_PendingUnit(
                    assignment.rep, assignment.attempt + 1,
                    assignment.dispatches + 1, now + delay))
            return
        ctx.note(assignment.rep, assignment.attempt, kind, reason,
                 worker=worker.ident, wall=now - assignment.started)
        self.counters["reassignments"] += 1
        ctx.trace("reassign", assignment.rep, worker=worker.ident,
                  reason=reason, dispatch=assignment.dispatches + 1)
        pending.append(_PendingUnit(
            assignment.rep, assignment.attempt,
            assignment.dispatches + 1, now))

    def _abandon(self, ctx: ExecutionContext,
                 active: Dict[int, _PoolWorker]) -> None:
        """Give up on in-flight units at the drain deadline."""
        for rep, worker in list(active.items()):
            worker.unit = None  # a late result is dropped as stale
            ctx.trace("abandon", rep, worker=worker.ident,
                      reason="drain timeout")
            self._lease_release(ctx, rep)
        active.clear()

    def _close_worker(self, worker: _PoolWorker) -> None:
        self._conns.pop(worker.sock, None)
        try:
            self._sel.unregister(worker.sock)
        except (KeyError, ValueError):
            pass
        try:
            worker.sock.close()
        except OSError:  # pragma: no cover
            pass

    # -- lease ledger ------------------------------------------------------

    def _lease_write(self, ctx: ExecutionContext,
                     worker: _PoolWorker) -> None:
        store = ctx.store
        if store is None:
            return
        assignment = worker.unit
        try:
            store.lease_update(ctx.key(assignment.rep), {
                "campaign": ctx.campaign,
                "label": ctx.label(assignment.rep),
                "worker": worker.ident,
                "attempt": assignment.attempt,
                "dispatch": assignment.dispatches,
                "acquired_at": time.time(),
                "expires_at": time.time() + self.lease,
            })
        except OSError:  # pragma: no cover - degraded store
            pass

    def _lease_release(self, ctx: ExecutionContext, rep: int) -> None:
        store = ctx.store
        if store is None:
            return
        try:
            store.lease_release([ctx.key(rep)])
        except OSError:  # pragma: no cover - degraded store
            pass

    # -- local workers -----------------------------------------------------

    def _respawn(self, ctx: ExecutionContext, worker: _PoolWorker) -> None:
        """Kill a lost worker this pool started and fork a successor.

        Unless the pass is draining — also when the lost worker held the
        pass's last unit, so the next pass finds a live worker. Crash
        loops stay bounded by :data:`REASSIGN_LIMIT` and the retry policy.
        """
        proc = next((p for p in self._procs if p.pid == worker.pid), None)
        if proc is None or ctx.should_stop():
            return
        self._procs.remove(proc)
        proc.kill()
        proc.join()
        self._spawn_worker()

    def _spawn_worker(self) -> None:
        """Start one local worker as a child of this process.

        The default :mod:`multiprocessing` context forks it on Linux,
        as it does the local backend's children, so the worker needs no
        interpreter start or imports of its own. It is a daemon: an
        interpreter that exits without :meth:`close` terminates it
        instead of waiting for it. It closes the coordinator's sockets
        it inherited (see :func:`_local_worker`).
        """
        host, port = self.address
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        proc = multiprocessing.get_context().Process(
            target=_local_worker,
            args=(host, port, [self._listener, *self._conns]),
            name="repro-pool-worker", daemon=True)
        proc.start()
        self._procs.append(proc)


def _local_worker(host: str, port: int,
                  inherited: List[socket.socket]) -> None:
    """Body of a local worker: serve units like ``repro worker``.

    First it closes the coordinator's listener and the other workers'
    connections it inherited. Otherwise :meth:`PoolBackend.close` would
    leave the port held while this worker lives, and a connection the
    coordinator drops would not end while this worker holds a copy. It
    also drops the signal wakeup fd it may have inherited from an
    asyncio loop (``repro serve`` forks replacements while serving), so
    a signal to this worker is not delivered to the coordinator too.
    The inherited heap is frozen out of this worker's garbage
    collections, which then walk only what its simulations allocate.
    """
    gc.freeze()
    signal.set_wakeup_fd(-1)
    for sock in inherited:
        sock.close()
    sys.exit(serve_units(host, port))
