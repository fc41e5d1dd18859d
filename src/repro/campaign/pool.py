"""Campaign execution on worker processes: the socket pool coordinator.

:class:`PoolBackend` fans a campaign's cold point-units over a pool of
workers. Local ones (``workers=N``) are forked from the coordinator,
each holding one end of a socket pair, so they start with the package
already imported and say hello within milliseconds; others run
``repro worker`` by hand or over SSH on remote hosts and connect to the
pool's listener (``workers=0`` plus the printed address; see
``docs/DISTRIBUTED.md``). Both serve units through the same
:func:`~repro.campaign.worker.serve_connection` loop. Everything is
stdlib: a non-blocking listener, a :mod:`selectors` event loop, and
the length-prefixed pickle framing of :mod:`repro.campaign.wire`.

:class:`LocalBackend`, the executor's default, is the same pool with a
stricter failure policy and no listener, forked for one pass and
closed after it (or no pool at all: ``jobs=1`` without a timeout runs
inline): only the workers it forked can reach it. This module is the
only one that starts processes.

Fault tolerance is the point. Every dispatched unit is held under a
**lease** that the worker renews with heartbeats while it simulates:

* a worker that *dies* (SIGKILL, OOM, network partition → EOF), goes
  *silent* past its lease or sends a frame outside the wire protocol
  is declared lost and its unit is **reassigned** to a live worker —
  an infrastructure failure is not the simulation's fault, so
  reassignment does not consume the unit's
  :class:`~repro.campaign.executor.RetryPolicy` budget (a
  :data:`REASSIGN_LIMIT` stops pathological crash loops); a worker
  this pool forked that dies is reaped, and its loss is reported as a
  ``crash`` that names the signal or exit code;
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

The free reassignments (:attr:`PoolBackend.reassign_limit`) and the
drain budget are the whole failure policy: :class:`LocalBackend` sets
both to zero, so a lost local worker costs its unit an attempt and an
interrupt abandons in-flight units at once.

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
import os
import selectors
import signal
import socket
import stat
import sys
import time
import traceback
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
from repro.campaign.worker import serve_connection
from repro.core.suite import load_simulator
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
    unit: Optional[_Assignment] = None
    #: The process, for a worker this pool forked.
    proc: Optional[BaseProcess] = None


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
    #: Worker losses a unit absorbs before each further loss costs it
    #: an attempt.
    reassign_limit = REASSIGN_LIMIT

    def __init__(
        self,
        bind: Optional[Tuple[str, int]] = ("127.0.0.1", 0),
        workers: int = 0,
        lease: float = DEFAULT_LEASE_SECONDS,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        """Configure (but don't yet bind) the coordinator.

        ``workers=N`` forks N local workers from this process on first
        use; ``workers=0`` expects external workers to connect to
        :attr:`address` (print it with :meth:`ensure_started`).
        ``bind=None`` opens no listener, so only forked workers join.
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
        """Bind the listener (unless ``bind`` is None) and fork local
        workers (idempotent)."""
        if self._sel is not None:
            return
        self._sel = selectors.DefaultSelector()
        if self.bind is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.bind)
            listener.listen(64)
            listener.setblocking(False)
            self._listener = listener
            self._sel.register(listener, selectors.EVENT_READ, "listener")
        for _ in range(self.workers):
            self._spawn_worker()

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) external workers connect to (binds on first
        call)."""
        self.ensure_started()
        if self._listener is None:
            raise ExecutionBackendError("the pool has no listener")
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
                if drain_deadline is None:
                    drain_deadline = now + self.drain_timeout
                if active and now >= drain_deadline:
                    self._abandon(ctx, active)
                if not active:
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
                where = ("" if self._listener is None else
                         " (listening on {}:{})".format(*self.address))
                raise ExecutionBackendError(
                    f"no live workers for {self.connect_timeout:g} s with "
                    f"{len(pending) + len(active)} unit(s) outstanding"
                    f"{where}")

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
            self._add_worker(conn, f"{addr[0]}:{addr[1]}")

    def _add_worker(self, sock: socket.socket, ident: str,
                    proc: Optional[BaseProcess] = None) -> None:
        sock.settimeout(_IO_TIMEOUT)
        worker = _PoolWorker(sock=sock, ident=ident, proc=proc)
        self._conns[sock] = worker
        self._sel.register(sock, selectors.EVENT_READ, worker)

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
            proc = worker.proc
            if proc is None:
                self._worker_lost(ctx, worker, pending, active,
                                  "connection closed")
                return
            # A worker this pool forked closes its connection only on
            # its way out: reap it and say how it ended.
            proc.join(timeout=5.0)
            if worker.unit is not None:
                ctx.trace("crash", worker.unit.rep,
                          attempt=worker.unit.attempt, worker=worker.ident,
                          exitcode=proc.exitcode)
            self._worker_lost(ctx, worker, pending, active,
                              _crash_reason(proc.exitcode), kind="crash")
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
            self._fail(ctx, assignment, pending, error, "error", worker, tb)
            self._lease_release(ctx, assignment.rep)

    @staticmethod
    def _claim(worker: _PoolWorker, token) -> Optional[_Assignment]:
        """Match a result to the worker's assignment; drop stale ones.

        A stale result (of a unit abandoned in an earlier pass) leaves
        the worker's current assignment in place.
        """
        assignment = worker.unit
        if assignment is None or assignment.token != token:
            return None
        worker.unit = None
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
                    f"heartbeat", kind="lease-expired")

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
            self.counters["timeouts"] += 1
            self._drop(ctx, worker, active)
            ctx.trace("timeout", assignment.rep, attempt=assignment.attempt,
                      timeout=ctx.policy.timeout)
            self._fail(ctx, assignment, pending,
                       f"point timed out after {ctx.policy.timeout:g} s "
                       f"(attempt {assignment.attempt})", "timeout", worker)

    def _worker_lost(self, ctx: ExecutionContext, worker: _PoolWorker,
                     pending: List[_PendingUnit],
                     active: Dict[int, _PoolWorker], reason: str,
                     kind: str = "worker-lost") -> None:
        """Drop a dead/silent worker; reassign its unit to the pool.

        Reassignment is free with respect to the retry policy — the
        simulation never got to fail — until the unit has burned
        through :attr:`reassign_limit` workers, after which further
        losses count as attempt failures (retry/backoff/quarantine as
        usual). ``kind`` (``worker-lost``, ``lease-expired`` or
        ``crash``) labels the loss in the unit's attempt history.
        """
        assignment = self._drop(ctx, worker, active)
        if assignment is None or ctx.should_stop():
            return  # when draining, the unit checkpoints as skipped
        losses = self._losses.get(assignment.rep, 0) + 1
        self._losses[assignment.rep] = losses
        if losses > self.reassign_limit:
            # Without free reassignments, a loss is one failed attempt.
            self._fail(ctx, assignment, pending,
                       f"unit lost its worker {losses} times (last: {reason})"
                       if self.reassign_limit else reason, kind, worker)
            return
        now = time.monotonic()
        ctx.note(assignment.rep, assignment.attempt, kind, reason,
                 worker=worker.ident, wall=now - assignment.started)
        self.counters["reassignments"] += 1
        ctx.trace("reassign", assignment.rep, worker=worker.ident,
                  reason=reason, dispatch=assignment.dispatches + 1)
        pending.append(_PendingUnit(
            assignment.rep, assignment.attempt,
            assignment.dispatches + 1, now))

    def _drop(self, ctx: ExecutionContext, worker: _PoolWorker,
              active: Dict[int, _PoolWorker]) -> Optional[_Assignment]:
        """Disconnect a worker, replace it if this pool forked it, and
        release the unit it held, which is returned."""
        assignment, worker.unit = worker.unit, None
        if worker.greeted:
            self.counters["workers_lost"] += 1
        self._close_worker(worker)
        self._respawn(ctx, worker)
        if assignment is not None:
            active.pop(assignment.rep, None)
            self._lease_release(ctx, assignment.rep)
        return assignment

    @staticmethod
    def _fail(ctx: ExecutionContext, assignment: _Assignment,
              pending: List[_PendingUnit], error: str, kind: str,
              worker: _PoolWorker, tb: Optional[str] = None) -> None:
        """Charge a unit one failed attempt; requeue it after its backoff
        unless it is quarantined."""
        now = time.monotonic()
        delay = ctx.fail_attempt(
            assignment.rep, assignment.attempt, error, tb=tb, kind=kind,
            worker=worker.ident, wall=now - assignment.started)
        if delay is not None:
            pending.append(_PendingUnit(
                assignment.rep, assignment.attempt + 1,
                assignment.dispatches + 1, now + delay))

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

    def _kill(self, proc: BaseProcess) -> None:
        """Kill and reap one forked worker, and forget it."""
        self._procs.remove(proc)
        proc.kill()
        proc.join()

    def _respawn(self, ctx: ExecutionContext, worker: _PoolWorker) -> None:
        """Kill a lost worker this pool started and fork a successor.

        Unless the pass is draining — also when the lost worker held the
        pass's last unit, so the next pass finds a live worker. Crash
        loops stay bounded by :attr:`reassign_limit` and the retry policy.
        """
        if worker.proc is None or ctx.should_stop():
            return
        self._kill(worker.proc)
        self._spawn_worker()

    def _spawn_worker(self) -> None:
        """Start one local worker as a child of this process.

        The default :mod:`multiprocessing` context forks it on Linux,
        so the worker needs no interpreter start or imports of its own:
        the simulator is loaded here first, once per coordinator.
        It is a daemon: an interpreter that exits without :meth:`close`
        terminates it instead of waiting for it. Its connection is one
        end of a socket pair, so no listener is involved and no other
        process can stand in for it. It lets go of the other sockets it
        inherited (see :func:`_local_worker`).
        """
        load_simulator()
        ours, theirs = socket.socketpair()
        proc = multiprocessing.get_context().Process(
            target=_local_worker, args=(theirs,),
            name="repro-pool-worker", daemon=True)
        try:
            proc.start()
        finally:
            theirs.close()
        self._procs.append(proc)
        self._add_worker(ours, f"{socket.gethostname()}:{proc.pid}", proc)


class LocalBackend(PoolBackend):
    """Single-host execution: inline, or on workers forked for the pass.

    ``jobs=1`` with no timeout runs units inline (fast path). Otherwise
    the pass runs on ``min(jobs, units)`` workers forked for it and
    closed when it ends, under the local failure policy: a lost worker
    costs its unit an attempt (no free reassignment), and an interrupt
    abandons in-flight units and kills their workers at once (no
    drain). A worker that dies is reported as a ``crash`` naming the
    signal, a hung one as a ``timeout``. The pass opens no listener:
    its workers reach it only through their socket pairs.
    """

    name = "local"
    reassign_limit = 0

    def __init__(self, jobs: int = 1):
        """Run passes on up to ``jobs`` worker processes."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        super().__init__(bind=None, drain_timeout=0.0)
        self.jobs = jobs

    def run(self, ctx: ExecutionContext) -> None:
        """Run one pass inline, or on a pool forked for it alone."""
        if self.jobs == 1 and ctx.policy.timeout is None:
            self._run_inline(ctx)
            return
        self.workers = min(self.jobs, len(ctx.units))
        try:
            super().run(ctx)
        finally:
            # Workers hold nothing to flush, and close() would wait
            # seconds for one still simulating (an interrupt raised as
            # KeyboardInterrupt), so they are killed, not asked to exit.
            for proc in self._procs:
                proc.kill()
            self.close()

    def _run_inline(self, ctx: ExecutionContext) -> None:
        """Run miss units in-process (no timeout enforcement possible).

        Each unit is one equivalence class: its first member simulates
        (through :meth:`~repro.core.suite.MicroBenchmarkSuite.\
simulate_point`, so test wrappers around the suite still intercept),
        the rest are replicated from that result. Per-point mode passes
        all-singleton units, making this byte-for-byte the legacy loop.
        """
        worker_id = f"inline:{os.getpid()}"
        for unit in ctx.units:
            if ctx.should_stop():
                return
            rep = unit[0]
            attempt = 0
            started = time.monotonic()
            while True:
                attempt += 1
                attempt_started = time.monotonic()
                try:
                    result = ctx.simulate(rep)
                except KeyboardInterrupt:
                    ctx.interrupt(signal.SIGINT)
                    return
                except Exception as exc:
                    attempt_wall = time.monotonic() - attempt_started
                    ctx.add_profile("simulate", attempt_wall)
                    delay = ctx.fail_attempt(
                        rep, attempt, f"{type(exc).__name__}: {exc}",
                        tb=traceback.format_exc(), worker=worker_id,
                        wall=attempt_wall,
                        total_wall=time.monotonic() - started)
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
                else:
                    ctx.add_profile("simulate",
                                    time.monotonic() - attempt_started)
                    wall = time.monotonic() - started
                    ctx.complete(rep, result, attempt, wall)
                    break


def _crash_reason(exitcode: Optional[int]) -> str:
    """How a forked worker that closed its connection ended."""
    if exitcode is not None and exitcode < 0:
        try:
            how = f"killed by signal {signal.Signals(-exitcode).name}"
        except ValueError:
            how = f"killed by signal {-exitcode}"
    else:
        how = f"exit code {exitcode}"
    return f"worker crashed ({how}) before returning a result"


def _local_worker(sock: socket.socket) -> None:
    """Body of a local worker: serve units over its end of the pair.

    First it lets go of every other socket it inherited (see
    :func:`_drop_inherited_sockets`), and drops the signal wakeup fd it
    may have inherited from an asyncio loop (``repro serve`` forks
    workers while serving), so a signal to this worker is not
    delivered to the coordinator too. The inherited heap is frozen out
    of this worker's garbage collections, which then walk only what its
    simulations allocate.
    """
    gc.freeze()
    signal.set_wakeup_fd(-1)
    _drop_inherited_sockets(keep=sock.fileno())
    sys.exit(serve_connection(sock))


def _drop_inherited_sockets(keep: int) -> None:
    """Point every socket fd a forked worker inherited at ``/dev/null``,
    but its own connection ``keep``.

    A fork copies all of the coordinator's sockets: the pool's listener,
    its end of every worker's pair (this worker's too), and under
    ``repro serve`` the HTTP listener and its open client connections.
    While a worker held a copy, a closed listener's port would stay
    bound and a connection the coordinator closes would send no FIN or
    EOF. Each fd number stays taken, so a stale socket object that
    closes its fd later cannot close a socket this worker opens under
    the same number. The standard streams are left alone, as they may
    be a log socket.
    """
    try:
        fds = [int(name) for name in os.listdir("/dev/fd")]
    except OSError:  # pragma: no cover - no fd directory to list
        return
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if (fd > 2 and fd not in (null, keep)
                    and stat.S_ISSOCK(os.fstat(fd).st_mode)):
                os.dup2(null, fd)
        except OSError:  # the listing's own fd, closed since
            pass
    os.close(null)
