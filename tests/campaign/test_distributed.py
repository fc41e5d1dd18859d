"""Distributed execution tests: wire protocol, PoolBackend, failover.

The contract under test (ISSUE 10): a campaign routed through
``PoolBackend`` — socket-connected ``repro worker`` processes with
heartbeat leases — must produce byte-identical store contents to the
default ``LocalBackend``, including under chaos: a SIGKILL'd worker's
unit is *reassigned* to a live worker (not quarantined), a worker that
goes silent loses its lease and the unit moves on, a heartbeating but
hung simulation hits the ordinary ``RetryPolicy.timeout``, and SIGINT
drains gracefully with exit code 130. Fault injection uses the same
env-gated chaos hooks the local supervised path uses (keyed by the
dispatch counter, so the replayed dispatch recovers).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignExecutor,
    ExecutionBackendError,
    LocalBackend,
    PoolBackend,
    RetryPolicy,
    create_execution_backend,
    run_campaign,
    worker,
)
from repro.campaign.backend import (
    ENV_CHAOS_ATTEMPTS,
    ENV_CHAOS_CRASH,
    ENV_CHAOS_HANG,
    ENV_CHAOS_HANG_SECS,
    ENV_CHAOS_MUTE,
)
from repro.campaign.wire import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_OK,
    MSG_SHUTDOWN,
    MSG_UNIT,
    FrameDecoder,
    FrameError,
    encode_message,
    recv_message,
    send_message,
)
from repro.core.suite import clear_result_cache
from repro.store import ResultStore

from tests.store.conftest import store_root
from tests.campaign.test_batch import GOLDEN, POINTS, _golden_config, \
    _golden_suite

#: Three tiny points (~ms of simulation each), one network.
TINY3 = dict(
    name="dist3",
    shuffle_gbs=(0.02, 0.03, 0.04),
    networks=("1GigE",),
    params={"num_maps": 4, "num_reduces": 2,
            "key_size": 256, "value_size": 256},
    slaves=2,
)

CHAOS_ENV = (ENV_CHAOS_CRASH, ENV_CHAOS_HANG, ENV_CHAOS_HANG_SECS,
             ENV_CHAOS_ATTEMPTS, ENV_CHAOS_MUTE)


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    clear_result_cache()
    for var in CHAOS_ENV:
        monkeypatch.delenv(var, raising=False)
    yield
    clear_result_cache()


@pytest.fixture()
def campaign():
    return Campaign(**TINY3)


@pytest.fixture()
def pool2():
    """A two-worker pool, closed (workers reaped) after the test."""
    backend = PoolBackend(workers=2, lease=5.0, drain_timeout=5.0)
    yield backend
    backend.close()


def times_of(result):
    return {p.key: p.result.execution_time.hex() for p in result.points}


class TestWire:
    def test_message_roundtrip_over_socket(self):
        a, b = socket.socketpair()
        messages = [
            (MSG_HELLO, {"worker": "h:1", "pid": 1}),
            (MSG_UNIT, (0, 3, 1), 3, 1, 0.5, b"x" * 70_000),
            (MSG_HEARTBEAT, (0, 3, 1)),
            (MSG_OK, (0, 3, 1), {"anything": ["pickles", 1.5]}),
        ]
        try:
            for message in messages:
                send_message(a, message)
            for message in messages:
                assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_decoder_reassembles_byte_dribble(self):
        """Frames split at every byte boundary still parse."""
        messages = [(MSG_HEARTBEAT, (1, 2, 3)), (MSG_OK, (1, 2, 3), None)]
        stream = b"".join(encode_message(m) for m in messages)
        decoder = FrameDecoder()
        seen = []
        for i in range(len(stream)):
            decoder.feed(stream[i:i + 1])
            seen.extend(decoder.drain())
        assert seen == messages

    def test_oversized_frame_rejected(self):
        import struct

        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", 1 << 31))
        with pytest.raises(FrameError):
            list(decoder.drain())

    def test_factory_builds_both_backends(self):
        local = create_execution_backend("local", jobs=2)
        assert isinstance(local, LocalBackend) and local.name == "local"
        pool = create_execution_backend("pool", jobs=2)
        assert isinstance(pool, PoolBackend) and pool.workers == 2
        with pytest.raises(ValueError):
            create_execution_backend("carrier-pigeon")


class TestPoolParity:
    def test_pool_matches_local_byte_identical(
            self, campaign, tmp_path, backend_name, pool2):
        """Same campaign, both engines, both store backends: same bytes."""
        local_store = ResultStore(store_root(tmp_path, backend_name,
                                             "local"))
        local = run_campaign(campaign, store=local_store)
        assert local.completed and local.backend == "local"
        clear_result_cache()

        pool_store = ResultStore(store_root(tmp_path, backend_name,
                                            "pool"))
        pooled = run_campaign(campaign, store=pool_store, backend=pool2)
        assert pooled.completed and pooled.backend == "pool"
        assert pooled.executed == 3 and pooled.from_store == 0

        assert sorted(pool_store.export()) == sorted(local_store.export())
        stats = pool_store.stats()
        assert stats["puts"] == 3 and stats["misses"] == 3
        assert stats["leases"] == 0          # all leases released
        assert pool_store.leases() == {}
        assert pool2.counters["dispatched"] >= 1
        # Three tiny units can all finish on the first worker before
        # the second one says hello, so only one join is certain.
        assert pool2.counters["workers_joined"] >= 1

    @pytest.mark.parametrize(
        "version", sorted({p["version"] for p in POINTS}))
    def test_pool_reproduces_golden_times(self, version):
        """All 40 pinned times, bit-for-bit, through two workers."""
        points = [p for p in POINTS if p["version"] == version]
        configs = [_golden_config(p) for p in points]
        backend = PoolBackend(workers=2)
        try:
            report = CampaignExecutor(
                _golden_suite(version), batch=True,
                backend=backend).execute(configs)
        finally:
            backend.close()
        assert report.backend == "pool"
        assert report.batched and report.executed == len(points)
        for point, outcome in zip(points, report.outcomes):
            assert (outcome.result.execution_time.hex()
                    == point["execution_time_hex"])

    def test_external_worker_joins_via_cli(self, campaign, tmp_path):
        """`repro worker --connect` against a workers=0 coordinator."""
        backend = PoolBackend(workers=0, lease=5.0)
        backend.ensure_started()
        host, port = backend.address
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.core.cli import repro_main; "
             "sys.exit(repro_main(sys.argv[1:]))",
             "worker", "--connect", f"{host}:{port}"],
            env=dict(__import__("os").environ, PYTHONPATH="src"),
            cwd="/root/repo")
        try:
            result = run_campaign(
                campaign, store=ResultStore(tmp_path / "store"),
                backend=backend)
            assert result.completed and result.executed == 3
        finally:
            backend.close()
            try:
                rc = proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
                pytest.fail("worker did not exit after shutdown")
        assert rc == 0  # shutdown message / closed socket is a clean exit

    def test_no_workers_is_a_backend_error(self, campaign, tmp_path):
        backend = PoolBackend(workers=0, connect_timeout=0.5)
        try:
            with pytest.raises(ExecutionBackendError):
                run_campaign(campaign,
                             store=ResultStore(tmp_path / "store"),
                             backend=backend)
        finally:
            backend.close()


class TestFailover:
    def test_sigkilled_worker_reassigns_not_quarantines(
            self, campaign, tmp_path, monkeypatch, pool2):
        """ISSUE acceptance: kill 1 of 2 workers mid-unit; exit clean.

        The first dispatch of point 0 SIGKILLs its worker; the unit is
        reassigned to the surviving worker (dispatch counter 1 escapes
        the chaos hook) and the campaign completes with *zero*
        failures — a dead host is not a reason to quarantine.
        """
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_CRASH, "0")  # first dispatch only
        result = run_campaign(campaign, store=store, backend=pool2)
        assert result.completed and result.failed == 0
        assert result.executed == 3
        assert pool2.counters["workers_lost"] >= 1
        assert pool2.counters["reassignments"] >= 1
        assert store.quarantine() == {}
        assert store.verify().clean

        # Byte-identity with an undisturbed local run.
        clear_result_cache()
        monkeypatch.delenv(ENV_CHAOS_CRASH)
        baseline = run_campaign(campaign,
                                store=ResultStore(tmp_path / "baseline"))
        assert times_of(result) == times_of(baseline)

    def test_mute_worker_lease_expires_and_reassigns(
            self, campaign, tmp_path, monkeypatch):
        """A silent (no-heartbeat) worker loses its lease, not the run."""
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_MUTE, "0")   # first dispatch mutes
        backend = PoolBackend(workers=2, lease=1.0, drain_timeout=5.0)
        started = time.monotonic()
        try:
            result = run_campaign(campaign, store=store, backend=backend)
        finally:
            counters = dict(backend.counters)
            backend.close()
        assert result.completed and result.failed == 0
        assert counters["leases_expired"] >= 1
        assert counters["reassignments"] >= 1
        assert time.monotonic() - started < 60
        assert store.quarantine() == {}

    def test_hung_but_heartbeating_unit_hits_policy_timeout(
            self, campaign, tmp_path, monkeypatch, pool2):
        """Heartbeats keep the lease alive; RetryPolicy.timeout rules."""
        store = ResultStore(tmp_path / "store")
        monkeypatch.setenv(ENV_CHAOS_HANG, "0")
        monkeypatch.setenv(ENV_CHAOS_HANG_SECS, "60")
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "99")  # every attempt
        started = time.monotonic()
        result = run_campaign(campaign, store=store, backend=pool2,
                              policy=RetryPolicy(timeout=1.0))
        elapsed = time.monotonic() - started
        assert result.failed == 1 and result.executed == 2
        assert "timed out" in result.outcomes[0].error
        assert elapsed < 45  # nobody waited for the 60 s hang
        assert pool2.counters["timeouts"] >= 1
        # The quarantine ledger carries the attempt history.
        entry = store.quarantine()[result.outcomes[0].key]
        assert entry["history"]
        assert entry["history"][0]["kind"] == "timeout"
        assert entry["history"][0]["worker"]

    def test_reassignment_composes_with_retry_policy(
            self, campaign, tmp_path, monkeypatch):
        """Worker loss does not consume the unit's retry budget."""
        store = ResultStore(tmp_path / "store")
        # Dispatch 0 of point 0 kills a worker (reassignment), then the
        # replay raises an ordinary failure once (retry), then succeeds:
        # requires retries=1 even though there were three dispatches.
        monkeypatch.setenv(ENV_CHAOS_CRASH, "0")
        monkeypatch.setenv(ENV_CHAOS_ATTEMPTS, "1")
        backend = PoolBackend(workers=2, lease=5.0)
        try:
            result = run_campaign(campaign, store=store, backend=backend,
                                  policy=RetryPolicy(retries=1,
                                                     backoff=0.0))
        finally:
            backend.close()
        assert result.completed and result.failed == 0


#: Child body for the pool SIGINT test: the real CLI, pool backend.
SIGINT_CHILD = """\
import sys
from repro.core.cli import repro_main
sys.exit(repro_main(["campaign", "run", sys.argv[1],
                     "--store", sys.argv[2], "--backend", "pool",
                     "--workers", "2", "--drain-timeout", "2"]))
"""


class TestGracefulDrain:
    def test_sigint_drains_pool_and_resume_fills_gap(
            self, campaign, tmp_path):
        """SIGINT a pool run: exit 130, whole records only, resumable."""
        spec = tmp_path / "dist3.json"
        spec.write_text(json.dumps(campaign.to_dict()))
        root = str(tmp_path / "store")
        env = dict(__import__("os").environ,
                   PYTHONPATH="src",
                   REPRO_CHAOS_HANG="2",         # third point hangs...
                   REPRO_CHAOS_HANG_SECS="60",   # ...for a minute
                   REPRO_CHAOS_ATTEMPTS="99")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-c", SIGINT_CHILD, str(spec), root],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd="/root/repo")
        try:
            lines = []
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                lines.append(line)
                if "[2/3]" in line:
                    break
            else:  # pragma: no cover - diagnostics only
                pytest.fail(f"never saw point 2 finish: {lines!r}")
            time.sleep(0.5)  # let the hanging unit actually dispatch
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=45)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (lines, out)
        assert "[interrupted]" in out

        store = ResultStore(root)
        assert store.stats()["puts"] == 2
        assert store.verify().clean
        assert store.leases() == {}    # abandoned leases were released

        clear_result_cache()
        from repro.core.cli import repro_main

        rc = repro_main(["campaign", "resume", str(spec),
                         "--store", root, "--quiet"])
        assert rc == 0
        assert store.stats()["puts"] == 3


#: Child body for the clean-shutdown test: the real CLI, pool backend.
CLEAN_CHILD = """\
import sys
from repro.core.cli import repro_main
sys.exit(repro_main(["campaign", "run", sys.argv[1], "--store",
                     sys.argv[2], "--backend", "pool", "--workers", "2",
                     "--quiet"]))
"""


class TestWorkerShutdown:
    """A drain signal interrupts only a worker's wait for its next unit.

    ``PoolBackend.close()`` sends SIGTERM to workers that may already be
    closing their socket or returning from ``run_worker``; a signal
    there must set the drain flag, not raise a ``KeyboardInterrupt``
    that prints a traceback from a clean run.
    """

    @pytest.fixture(autouse=True)
    def worker_flags(self, monkeypatch):
        monkeypatch.setattr(worker, "_waiting", False)
        monkeypatch.setattr(worker, "_draining", False)

    def test_signal_outside_the_wait_only_sets_the_drain_flag(self):
        worker._on_signal(signal.SIGTERM, None)
        assert worker._draining

    def test_signal_during_the_wait_interrupts_it(self, monkeypatch):
        monkeypatch.setattr(worker, "_waiting", True)
        with pytest.raises(KeyboardInterrupt):
            worker._on_signal(signal.SIGTERM, None)
        assert worker._draining

    def test_wait_flag_covers_only_the_receive(self):
        left, right = socket.socketpair()
        try:
            send_message(right, (MSG_SHUTDOWN,))
            assert worker._next_message(left) == (MSG_SHUTDOWN,)
            assert not worker._waiting
            # A signal that landed just before the wait ends it unread.
            worker._draining = True
            with pytest.raises(KeyboardInterrupt):
                worker._next_message(left)
            assert not worker._waiting
        finally:
            left.close()
            right.close()

    def test_signal_while_closing_the_socket_exits_cleanly(
            self, monkeypatch):
        """SIGTERM inside ``run_worker``'s ``finally: sock.close()``."""
        listener = socket.create_server(("127.0.0.1", 0))

        def coordinator():
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)                  # the hello
                send_message(conn, (MSG_SHUTDOWN,))
                time.sleep(0.2)

        thread = threading.Thread(target=coordinator, daemon=True)
        thread.start()
        monkeypatch.setattr(worker.signal, "signal", lambda *_args: None)
        real_close = socket.socket.close

        def close_under_sigterm(sock):
            worker._on_signal(signal.SIGTERM, None)
            real_close(sock)

        monkeypatch.setattr(socket.socket, "close", close_under_sigterm)
        try:
            assert worker.run_worker(*listener.getsockname()[:2]) == 0
            assert worker._draining
        finally:
            thread.join(timeout=5)
            listener.close()

    def test_clean_pool_campaigns_write_nothing_to_stderr(
            self, campaign, tmp_path):
        """Repeated clean 3-point pool campaigns: exit 0, empty stderr."""
        import repro

        spec = tmp_path / "dist3.json"
        spec.write_text(json.dumps(campaign.to_dict()))
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")]))
        for run in range(5):
            proc = subprocess.run(
                [sys.executable, "-c", CLEAN_CHILD, str(spec),
                 str(tmp_path / f"store{run}")],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == "", f"run {run}: {proc.stderr}"


class TestLeaseLedger:
    def test_lease_written_while_running_released_after(
            self, campaign, tmp_path, monkeypatch):
        """The store shows who holds which unit, live, then nothing."""
        store = ResultStore(tmp_path / "store")
        seen = {}
        real_update = store.lease_update

        def spy(key, entry):
            seen[key] = dict(entry)
            real_update(key, entry)

        monkeypatch.setattr(store, "lease_update", spy)
        backend = PoolBackend(workers=2, lease=5.0)
        try:
            result = run_campaign(campaign, store=store, backend=backend)
        finally:
            backend.close()
        assert result.completed
        assert len(seen) == 3                 # every unit was leased
        for entry in seen.values():
            assert entry["worker"] and entry["campaign"] == campaign.name
            assert entry["expires_at"] > entry["acquired_at"]
        assert store.leases() == {}           # ...and every lease released
        assert store.stats()["leases"] == 0
