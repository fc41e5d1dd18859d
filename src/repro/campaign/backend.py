"""Pluggable execution substrates for the campaign executor.

:class:`~repro.campaign.executor.CampaignExecutor` owns campaign
*semantics* — store lookup, batch planning, retry/backoff policy,
quarantine, checkpoints, progress, tracing. *Where* a cold point-unit
actually simulates is delegated to an :class:`ExecutionBackend`:

* :class:`LocalBackend` — the default; runs units inline (fast path)
  or in supervised ``multiprocessing`` workers on this host.
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
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import chaos
from repro.core.suite import _run_point

#: Point outcome statuses (shared by the executor and all backends).
STATUS_OK = "ok"            #: simulated this run
STATUS_CACHED = "cached"    #: served from memo cache / disk store
STATUS_FAILED = "failed"    #: exhausted retries; quarantined
STATUS_SKIPPED = "skipped"  #: never ran (interrupt or fail-fast abort)


def _child_main(conn, payload: tuple, index: int, attempt0: int) -> None:
    """Worker-process entry: simulate one point, ship the result back.

    The parent owns shutdown: SIGINT is ignored (the parent decides
    what dies) and SIGTERM is restored to its default action so
    ``terminate()`` always works even though the parent's graceful
    handler was inherited across ``fork``.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        chaos.sabotage(index, attempt0)
        result = _run_point(payload)
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
        except (OSError, ValueError):  # pragma: no cover - parent gone
            pass
        finally:
            conn.close()
        return
    try:
        conn.send(("ok", result))
    except (OSError, ValueError):  # pragma: no cover - parent gone
        pass
    finally:
        conn.close()


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

    def describe(self) -> dict:
        """A JSON-able summary for stats endpoints and checkpoints."""
        return {"backend": self.name}


@dataclass
class _Worker:
    """One live point-attempt process."""

    index: int
    attempt: int  # 1-based
    process: object
    conn: object
    started: float
    deadline: Optional[float]


@dataclass
class _Pending:
    """One queued point attempt (``ready_at`` implements backoff)."""

    index: int
    attempt: int  # 1-based
    ready_at: float = 0.0


class LocalBackend(ExecutionBackend):
    """Single-host execution: inline or supervised worker processes.

    ``jobs=1`` with no timeout runs units inline (fast path); ``jobs >
    1`` or a per-point timeout fans units over supervised
    ``multiprocessing`` children with per-attempt deadlines and crash
    isolation.
    """

    name = "local"

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, ctx: ExecutionContext) -> None:
        if self.jobs > 1 or ctx.policy.timeout is not None:
            self._run_isolated(ctx)
        else:
            self._run_inline(ctx)

    # -- inline path -------------------------------------------------------

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

    # -- isolated path -----------------------------------------------------

    def _run_isolated(self, ctx: ExecutionContext) -> None:
        """Run miss units in supervised worker processes.

        Each unit's representative is dispatched to a worker; when it
        reports back, the unit's remaining members are replicated in
        the parent (see :meth:`_collect`). A crashed/hung/failing
        representative fails its whole unit — every member is
        quarantined under its own key, so ``campaign resume`` re-runs
        exactly those points.
        """
        mp_ctx = multiprocessing.get_context()
        queue: List[_Pending] = [_Pending(unit[0], 1) for unit in ctx.units]
        live: Dict[int, _Worker] = {}
        try:
            while queue or live:
                if ctx.should_stop():
                    break
                now = time.monotonic()
                while len(live) < self.jobs and queue:
                    slot = next((p for p in queue if p.ready_at <= now),
                                None)
                    if slot is None:
                        break
                    queue.remove(slot)
                    live[slot.index] = self._spawn(
                        ctx, mp_ctx, slot.index, slot.attempt)
                if live:
                    self._wait_and_collect(ctx, queue, live)
                elif queue:
                    # Everyone is waiting out a backoff.
                    next_ready = min(p.ready_at for p in queue)
                    time.sleep(min(0.2, max(0.005,
                                            next_ready - time.monotonic())))
        finally:
            for worker in live.values():
                self._kill_worker(worker)

    def _spawn(self, ctx: ExecutionContext, mp_ctx,
               index: int, attempt: int) -> _Worker:
        payload = ctx.payload(index)
        parent_conn, child_conn = mp_ctx.Pipe(duplex=False)
        process = mp_ctx.Process(
            target=_child_main, args=(child_conn, payload, index, attempt - 1),
            daemon=True, name=f"repro-point-{index}",
        )
        process.start()
        child_conn.close()
        started = time.monotonic()
        deadline = (started + ctx.policy.timeout
                    if ctx.policy.timeout is not None else None)
        return _Worker(index=index, attempt=attempt, process=process,
                       conn=parent_conn, started=started, deadline=deadline)

    def _wait_and_collect(self, ctx: ExecutionContext,
                          queue: List[_Pending],
                          live: Dict[int, _Worker]) -> None:
        """One supervision step: wait for results, enforce deadlines."""
        now = time.monotonic()
        wait_timeout = 0.2
        deadlines = [w.deadline for w in live.values()
                     if w.deadline is not None]
        if deadlines:
            wait_timeout = min(wait_timeout, max(0.0, min(deadlines) - now))
        by_conn = {w.conn: w for w in live.values()}
        ready = mp_connection.wait(list(by_conn), timeout=wait_timeout)
        for conn in ready:
            worker = by_conn[conn]
            live.pop(worker.index, None)
            self._collect(ctx, worker, queue)
        now = time.monotonic()
        for worker in list(live.values()):
            if worker.deadline is not None and now >= worker.deadline:
                live.pop(worker.index, None)
                self._kill_worker(worker)
                ctx.trace("timeout", worker.index, attempt=worker.attempt,
                          timeout=ctx.policy.timeout)
                self._failure(
                    ctx, worker, queue,
                    f"point timed out after {ctx.policy.timeout:g} s "
                    f"(attempt {worker.attempt})", None, kind="timeout")

    def _collect(self, ctx: ExecutionContext, worker: _Worker,
                 queue: List[_Pending]) -> None:
        """Reap one finished (or dead) worker."""
        message = None
        try:
            if worker.conn.poll():
                message = worker.conn.recv()
        except (EOFError, OSError):
            message = None
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if message is None:
            code = worker.process.exitcode
            if code is not None and code < 0:
                try:
                    desc = f"killed by signal {signal.Signals(-code).name}"
                except ValueError:
                    desc = f"killed by signal {-code}"
            else:
                desc = f"exit code {code}"
            ctx.trace("crash", worker.index, attempt=worker.attempt,
                      exitcode=code)
            self._failure(ctx, worker, queue,
                          f"worker crashed ({desc}) before returning a "
                          f"result", None, kind="crash")
        elif message[0] == "ok":
            result = message[1]
            wall = time.monotonic() - worker.started
            ctx.add_profile("simulate", wall)
            ctx.complete(worker.index, result, worker.attempt, wall,
                         record=True)
        else:
            _tag, error, tb = message
            self._failure(ctx, worker, queue, error, tb)

    def _failure(self, ctx: ExecutionContext, worker: _Worker,
                 queue: List[_Pending], error: str, tb: Optional[str],
                 kind: str = "error") -> None:
        """Route one failed attempt: backoff-retry or quarantine."""
        pid = getattr(worker.process, "pid", None)
        delay = ctx.fail_attempt(
            worker.index, worker.attempt, error, tb=tb, kind=kind,
            worker=f"local:{pid}" if pid is not None else "local",
            wall=time.monotonic() - worker.started)
        if delay is not None:
            queue.append(_Pending(worker.index, worker.attempt + 1,
                                  time.monotonic() + delay))

    def _kill_worker(self, worker: _Worker) -> None:
        """Terminate (then kill) one worker; never raises."""
        try:
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn
                worker.process.kill()
                worker.process.join(timeout=2.0)
        except (OSError, ValueError):  # pragma: no cover
            pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

