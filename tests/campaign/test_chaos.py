"""Chaos harness tests: SIGKILL'd workers, hangs, SIGINT mid-run.

These exercise the failure paths ISSUE 5 hardens: a worker killed
mid-campaign must quarantine only its point (the campaign completes),
a hung worker must hit the wall-clock timeout, SIGINT must checkpoint
and leave only whole records behind, and ``campaign resume`` must
re-run exactly the gap — with every recovered time hex-identical to a
clean run. Fault injection uses the env-gated chaos hooks in
:mod:`repro.campaign.chaos`; nothing in production code is patched.
The hooks fire only in worker processes, so crash tests run at
``jobs=2``.
"""

import json
import multiprocessing
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignExecutor,
    LocalBackend,
    RetryPolicy,
    run_campaign,
)
from repro.campaign.chaos import (
    ENV_CHAOS_ATTEMPTS,
    ENV_CHAOS_CRASH,
    ENV_CHAOS_HANG,
    ENV_CHAOS_HANG_SECS,
    ENV_CHAOS_MUTE,
)
from repro.campaign.executor import STATUS_FAILED
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.sim.trace import CAT_HARNESS, Tracer
from repro.store import ResultStore

from tests.store.conftest import store_root
from tests.subproc import REPO, child_env

#: Three tiny points (~2 ms of simulation each), one network.
TINY3 = dict(
    name="chaos3",
    shuffle_gbs=(0.02, 0.03, 0.04),
    networks=("1GigE",),
    params={"num_maps": 4, "num_reduces": 2,
            "key_size": 256, "value_size": 256},
    slaves=2,
)

CHAOS_ENV = (ENV_CHAOS_CRASH, ENV_CHAOS_HANG, ENV_CHAOS_HANG_SECS,
             ENV_CHAOS_ATTEMPTS, ENV_CHAOS_MUTE)

#: How a dead local worker is reported, in the ledger and the history.
CRASH_SIGKILL = ("worker crashed (killed by signal SIGKILL) before "
                 "returning a result")


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Fresh memo cache and no stray chaos hooks, before and after."""
    clear_result_cache()
    for var in CHAOS_ENV:
        monkeypatch.delenv(var, raising=False)
    yield
    clear_result_cache()


@pytest.fixture()
def campaign():
    return Campaign(**TINY3)


@pytest.fixture()
def baseline_times(campaign, tmp_path):
    """Hex-exact reference times from an undisturbed in-process run."""
    result = run_campaign(campaign, store=ResultStore(tmp_path / "baseline"))
    assert result.completed
    times = {p.key: p.result.execution_time.hex() for p in result.points}
    clear_result_cache()
    return times


def times_of(result):
    return {p.key: p.result.execution_time.hex() for p in result.points}


class TestWorkerCrash:
    def test_sigkill_quarantines_point_campaign_completes(
            self, campaign, tmp_path, monkeypatch, baseline_times,
            root_kind):
        """ISSUE acceptance: SIGKILL one worker; others finish.

        Runs against both store root spellings: crash-quarantine-resume
        is a store-contract workflow.
        """
        store = ResultStore(store_root(tmp_path, root_kind))
        monkeypatch.setenv(ENV_CHAOS_CRASH, "1")   # sabotage point 1
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")  # every attempt
        result = run_campaign(campaign, store=store, jobs=2,
                              policy=RetryPolicy(retries=1, backoff=0.0))
        # The campaign completed (no exception), the point is quarantined.
        assert result.executed == 2 and result.failed == 1
        bad = result.outcomes[1]
        assert bad.status == STATUS_FAILED and bad.attempts == 2
        assert "SIGKILL" in bad.error
        ledger = store.quarantine()
        assert set(ledger) == {bad.key}
        assert ledger[bad.key]["campaign"] == campaign.name
        # Only whole records made it to disk.
        assert store.verify().clean
        assert store.stats()["puts"] == 2
        # The checkpoint records the gap.
        checkpoint = store.read_checkpoint(campaign.name)
        assert checkpoint["failed"] == [bad.key]
        assert len(checkpoint["completed"]) == 2

        # -- resume re-runs exactly the gap, bit-identically ----------
        monkeypatch.delenv(ENV_CHAOS_CRASH)
        monkeypatch.delenv(ENV_CHAOS_ATTEMPTS)
        clear_result_cache()
        store.quarantine_clear()
        resumed = run_campaign(campaign, store=store)
        assert resumed.executed == 1          # puts delta == the gap
        assert resumed.from_store == 2
        assert resumed.completed
        assert store.stats()["puts"] == 3
        assert store.quarantine() == {}
        assert times_of(resumed) == baseline_times

    def test_crash_then_retry_recovers_bit_identical(
            self, campaign, tmp_path, monkeypatch, baseline_times):
        """Default chaos: attempt 1 dies, the retry succeeds."""
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_CRASH, "0")  # attempt 1 only
        tracer = Tracer()
        result = run_campaign(campaign, store=store, tracer=tracer, jobs=2,
                              policy=RetryPolicy(retries=2, backoff=0.0))
        assert result.completed and result.executed == 3
        assert result.outcomes[0].attempts == 2
        markers = [(ev.name, ev.lane) for ev in tracer.events
                   if ev.cat == CAT_HARNESS]
        label0 = result.outcomes[0].label
        assert ("crash", label0) in markers
        assert ("retry", label0) in markers
        assert times_of(result) == baseline_times

    def test_crashed_sweep_point_raises_after_the_rest_are_recorded(
            self, tmp_path, monkeypatch):
        """A parallel sweep records every other point, then raises."""
        store = ResultStore(tmp_path / "store")
        campaign = Campaign(**TINY3)
        suite = MicroBenchmarkSuite(cluster=campaign.cluster_spec(),
                                    store=store)
        monkeypatch.setenv(ENV_CHAOS_CRASH, "1")
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")
        with pytest.raises(RuntimeError, match="0.03 GB 1GigE: .*SIGKILL"):
            suite.sweep("MR-AVG", TINY3["shuffle_gbs"], TINY3["networks"],
                        jobs=2, **TINY3["params"])
        assert store.stats()["puts"] == 2
        assert store.verify().clean

    def test_crash_on_every_attempt_is_reported_as_a_crash(
            self, campaign, tmp_path, monkeypatch):
        """The ledger entry and each attempt name the signal."""
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_CRASH, "1")
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")
        result = run_campaign(campaign, store=store, jobs=2,
                              policy=RetryPolicy(retries=1, backoff=0.0))
        entry = store.quarantine()[result.outcomes[1].key]
        assert entry["error"] == CRASH_SIGKILL
        assert [(h["attempt"], h["kind"], h["error"])
                for h in entry["history"]] == [
            (1, "crash", CRASH_SIGKILL), (2, "crash", CRASH_SIGKILL)]
        assert all(h["worker"] for h in entry["history"])

    def test_first_attempt_crash_traces_crash_then_retry(
            self, campaign, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CHAOS_CRASH, "0")  # attempt 1 only
        tracer = Tracer()
        result = run_campaign(campaign, store=ResultStore(tmp_path / "s"),
                              tracer=tracer, jobs=2,
                              policy=RetryPolicy(retries=1, backoff=0.0))
        assert result.completed and result.outcomes[0].attempts == 2
        label0 = result.outcomes[0].label
        assert [ev.name for ev in tracer.events
                if ev.cat == CAT_HARNESS and ev.lane == label0
                and ev.name != "dispatch"] == ["crash", "retry"]

    def test_muted_worker_costs_its_point_an_attempt(
            self, campaign, tmp_path, monkeypatch):
        """A lease expiry is a failed attempt locally, not a free
        reassignment."""
        monkeypatch.setenv(ENV_CHAOS_MUTE, "0")   # first dispatch mutes
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        store = ResultStore(tmp_path / "store")
        backend = LocalBackend(jobs=2)
        backend.lease = 1.0
        result = run_campaign(campaign, store=store, backend=backend,
                              policy=RetryPolicy(retries=1, backoff=0.0))
        assert result.completed and result.backend == "local"
        assert result.outcomes[0].attempts == 2
        assert backend.counters["leases_expired"] == 1
        assert backend.counters["reassignments"] == 0
        assert multiprocessing.active_children() == []

    def test_hooks_never_fire_in_process(self, campaign, tmp_path,
                                         monkeypatch):
        """jobs=1 without a timeout runs inline, where no hook runs."""
        monkeypatch.setenv(ENV_CHAOS_CRASH, "0")
        result = run_campaign(campaign, store=ResultStore(tmp_path / "s"))
        assert result.completed and result.failed == 0
        assert result.batched is True


class TestTimeout:
    def test_hung_worker_times_out_and_quarantines(
            self, campaign, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")
        started = time.monotonic()
        result = run_campaign(campaign, store=store,
                              policy=RetryPolicy(timeout=0.8))
        elapsed = time.monotonic() - started
        assert result.failed == 1 and result.executed == 2
        assert "timed out" in result.outcomes[0].error
        assert elapsed < 30  # the 60 s hang was actually killed

    def test_timeout_with_retry_gives_second_chance(
            self, campaign, tmp_path, monkeypatch, baseline_times):
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")   # attempt 1 only
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        result = run_campaign(
            campaign, store=store,
            policy=RetryPolicy(retries=1, backoff=0.0, timeout=0.8))
        assert result.completed and result.executed == 3
        assert result.outcomes[0].attempts == 2
        assert times_of(result) == baseline_times


def spy_on_forks(backend, monkeypatch):
    """The pool's connection to each worker ``backend`` forks."""
    conns = []
    spawn = backend._spawn_worker

    def spy():
        spawn()
        conns.append(list(backend._conns)[-1])

    monkeypatch.setattr(backend, "_spawn_worker", spy)
    return conns


class StopOnDispatch(Tracer):
    """A tracer that interrupts its executor when a point dispatches."""

    def __init__(self, point):
        super().__init__()
        self.point = point
        self.executor = None

    def complete(self, name, cat, track, lane, start, end, **args):
        super().complete(name, cat, track, lane, start, end, **args)
        if name == "dispatch" and args.get("point") == self.point:
            self.executor.request_stop()


class TestPassPool:
    """At ``jobs > 1`` each pass forks its own workers and reaps them."""

    def run_pass(self, campaign, tmp_path, monkeypatch, jobs=2,
                 policy=None, tracer=None, progress=None):
        backend = LocalBackend(jobs=jobs)
        self.conns = spy_on_forks(backend, monkeypatch)
        executor = CampaignExecutor(
            campaign.suite(ResultStore(tmp_path / "store")),
            policy=policy, handle_signals=False, tracer=tracer,
            progress=progress, backend=backend)
        if tracer is not None:
            tracer.executor = executor
        started = time.monotonic()
        report = executor.execute([p.config for p in campaign.points()])
        return report, time.monotonic() - started

    def assert_reaped(self):
        assert self.conns
        assert all(sock.fileno() == -1 for sock in self.conns)
        assert multiprocessing.active_children() == []

    def test_clean_pass(self, campaign, tmp_path, monkeypatch):
        report, _ = self.run_pass(campaign, tmp_path, monkeypatch)
        assert report.executed == 3 and report.backend == "local"
        assert len(self.conns) == 2
        self.assert_reaped()

    def test_a_pass_opens_no_listener(self, campaign, tmp_path,
                                      monkeypatch):
        """Only the workers a pass forked can reach it: no other process
        can connect to it, feed it pickles or take its units."""
        listened = []
        listen = socket.socket.listen

        def spy(sock, *args):
            listened.append(sock.getsockname())
            return listen(sock, *args)

        monkeypatch.setattr(socket.socket, "listen", spy)
        report, _ = self.run_pass(campaign, tmp_path, monkeypatch)
        assert report.executed == 3
        assert listened == []
        assert [sock.family for sock in self.conns] == [socket.AF_UNIX] * 2
        self.assert_reaped()

    def test_interrupted_pass_kills_its_workers_at_once(
            self, campaign, tmp_path, monkeypatch):
        """No drain: the hung unit is abandoned and its worker killed,
        without waiting out the pool's 2 s join at close."""
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        report, elapsed = self.run_pass(
            campaign, tmp_path, monkeypatch, tracer=StopOnDispatch(0))
        assert report.interrupted and report.skipped >= 1
        assert elapsed < 1.5
        self.assert_reaped()

    def test_keyboard_interrupt_kills_its_workers_at_once(
            self, campaign, tmp_path, monkeypatch):
        """An interrupt raised as ``KeyboardInterrupt`` (a sweep leaves
        signal handling alone) waits for no worker still simulating."""
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        raised = []

        def interrupt(outcome):
            time.sleep(0.2)   # point 0's worker is asleep in it by now
            raised.append(time.monotonic())
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.run_pass(campaign, tmp_path, monkeypatch,
                          progress=interrupt)
        assert time.monotonic() - raised[0] < 1.5
        self.assert_reaped()

    def test_pass_with_a_timed_out_unit(self, campaign, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        report, _ = self.run_pass(campaign, tmp_path, monkeypatch,
                                  policy=RetryPolicy(timeout=0.8))
        assert report.failed == 1 and report.executed == 2
        assert "timed out" in report.outcomes[0].error
        self.assert_reaped()

    def test_forks_no_more_workers_than_units(self, tmp_path, monkeypatch):
        campaign = Campaign(**dict(TINY3, shuffle_gbs=(0.02, 0.03)))
        report, _ = self.run_pass(campaign, tmp_path, monkeypatch, jobs=4)
        assert report.executed == 2
        assert len(self.conns) == 2
        self.assert_reaped()


#: Child body for the SIGINT test: run the real CLI against a spec.
SIGINT_CHILD = """\
import sys
from repro.core.cli import repro_main
sys.exit(repro_main(["campaign", "run", sys.argv[1],
                     "--store", sys.argv[2], "--jobs", "2"]))
"""


class TestGracefulInterrupt:
    def test_sigint_checkpoints_then_resume_fills_the_gap(
            self, campaign, tmp_path, baseline_times, monkeypatch,
            root_kind):
        """SIGINT a real `repro campaign run`; resume completes it.

        Runs against both store root spellings via the real CLI ``--store``
        root string.
        """
        spec = tmp_path / "chaos3.json"
        spec.write_text(json.dumps(campaign.to_dict()))
        root = store_root(tmp_path, root_kind)
        env = child_env(REPRO_CHAOS_HANG="2",         # third point hangs...
                        REPRO_CHAOS_HANG_SECS="60")   # ...for a minute
        proc = subprocess.Popen(
            [sys.executable, "-u", "-c", SIGINT_CHILD,
             str(spec), root],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO)
        try:
            # Wait until the first two points have been reported done.
            lines = []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                lines.append(line)
                if "[2/3]" in line:
                    break
            else:  # pragma: no cover - diagnostics only
                pytest.fail(f"never saw point 2 finish: {lines!r}")
            time.sleep(0.5)  # let the hanging worker actually start
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (lines, out)
        assert "[interrupted]" in out

        store = ResultStore(root)
        # Completed points are durable; the store holds only whole
        # records (no torn writes from the interrupt).
        assert store.stats()["puts"] == 2
        assert store.verify().clean
        checkpoint = store.read_checkpoint(campaign.name)
        assert checkpoint["interrupted"] is True
        assert len(checkpoint["completed"]) == 2
        assert len(checkpoint["skipped"]) == 1

        # -- resume (chaos hooks off) runs exactly the gap ------------
        from repro.core.cli import repro_main

        clear_result_cache()
        rc = repro_main(["campaign", "resume", str(spec),
                         "--store", root, "--quiet"])
        assert rc == 0
        assert store.stats()["puts"] == 3  # delta == the gap
        suite_times = {}
        from repro.core.suite import MicroBenchmarkSuite
        suite = MicroBenchmarkSuite(cluster=campaign.cluster_spec(),
                                    jobconf=campaign.jobconf(),
                                    store=store)
        for point in campaign.points():
            key = suite.store_key(point.config)
            suite_times[key] = store.get(key).execution_time.hex()
        assert suite_times == baseline_times
