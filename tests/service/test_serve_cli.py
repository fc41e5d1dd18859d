"""`repro serve`: the real CLI process, interrupted like an operator.

Mirrors the campaign chaos SIGINT test: spawn the actual CLI, wait for
the ready line, talk HTTP to it, SIGINT it, and assert the graceful-
shutdown contract — exit code 130 (parity with an interrupted
``repro campaign run``) and every completed point durable in the store.
"""

import http.client
import json
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.store import ResultStore

from tests.service.conftest import tiny_query
from tests.store.conftest import store_root
from tests.subproc import REPO, child_env

#: Child body: run the real CLI on an ephemeral port.
SERVE_CHILD = """\
import sys
from repro.core.cli import repro_main
sys.exit(repro_main(["serve", "--store", sys.argv[1], "--port", "0"]))
"""


def start_server(root):
    """Spawn `repro serve` and return (process, port) once it's ready."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-c", SERVE_CHILD, root],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=child_env(), cwd=REPO)
    line = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", line)
    if not match:  # pragma: no cover - diagnostics only
        proc.kill()
        out, _ = proc.communicate()
        pytest.fail(f"no ready line: {line!r} + {out!r}")
    return proc, int(match.group(1))


def finish(proc, timeout=30):
    out, _ = proc.communicate(timeout=timeout)
    return proc.returncode, out


class TestServeCli:
    def test_serve_answers_then_sigint_exits_130(
            self, tmp_path, root_kind):
        root = store_root(tmp_path, root_kind)
        proc, port = start_server(root)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=60)
            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"

            body = json.dumps(tiny_query(wait=True))
            conn.request("POST", "/v1/points", body=body)
            cold = conn.getresponse()
            assert cold.status == 200
            record = json.loads(cold.read())
            assert record["result"]["execution_time"] > 0
            conn.close()

            time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            returncode, out = finish(proc)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert returncode == 130, out
        # The point served before the interrupt is durable.
        store = ResultStore(root)
        assert store.stats()["puts"] == 1
        assert store.verify().clean

    def test_sigterm_also_shuts_down_gracefully(self, tmp_path):
        proc, port = start_server(str(tmp_path / "store"))
        try:
            proc.send_signal(signal.SIGTERM)
            returncode, out = finish(proc)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert returncode == 130, out
