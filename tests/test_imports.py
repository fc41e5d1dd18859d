"""The import boundary: the control plane starts without the simulator.

Importing ``repro.store``, ``repro.campaign``, ``repro.service`` or the
CLI, and anything they do without simulating a point (a fully warm
campaign, ``repro store stats``), loads no numpy and no simulator
module; a cold point loads them, and a worker has them loaded before it
takes a unit. Package re-exports resolve on first attribute access.
Every check runs in a fresh interpreter, since this one has long since
imported everything.
"""

import json
import subprocess
import sys

import pytest

from tests.subproc import REPO, child_env

#: Modules only a simulation needs.
SIMULATOR = ("numpy", "repro.core.matrix", "repro.core.partitioners",
             "repro.hadoop.simulation", "repro.hadoop.maptask",
             "repro.net.fabric")

#: What a process that simulates nothing must not load.
NOT_AT_START = SIMULATOR + ("repro.engine", "repro.analysis.book")

#: The packages whose re-exports resolve on first access.
PACKAGES = ("repro", "repro.core", "repro.hadoop", "repro.net",
            "repro.analysis")

#: Two 1GigE/IPoIB points of a few milliseconds each.
TINY_SPEC = {"name": "tiny", "shuffle_gbs": [0.02],
             "networks": ["1GigE", "ipoib-qdr"], "slaves": 2,
             "params": {"num_maps": 4, "num_reduces": 2,
                        "key_size": 256, "value_size": 256}}


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=REPO,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str) -> list:
    """The :data:`NOT_AT_START` modules loaded once ``code`` ran."""
    out = run_child(
        code + "\nimport json, sys\n"
        f"print(json.dumps([m for m in {NOT_AT_START!r} "
        f"if m in sys.modules]))")
    return json.loads(out.splitlines()[-1])


@pytest.fixture
def warm_store(tmp_path):
    """A store holding every point of :data:`TINY_SPEC`, and the spec."""
    spec = tmp_path / "tiny.json"
    spec.write_text(json.dumps(TINY_SPEC))
    root = tmp_path / "store"
    out = run_child(
        "from repro.campaign import load_campaign, run_campaign\n"
        f"result = run_campaign(load_campaign({str(spec)!r}), "
        f"store={str(root)!r})\n"
        "print(result.executed)")
    assert out.split() == ["2"]
    return spec, root


def test_control_plane_imports_leave_the_simulator_out():
    assert loaded_after("import repro.store, repro.campaign, "
                        "repro.service, repro.core.cli") == []


def test_warm_campaign_and_store_stats_leave_the_simulator_out(warm_store):
    spec, root = warm_store
    assert loaded_after(
        "from repro.campaign import load_campaign, run_campaign\n"
        f"result = run_campaign(load_campaign({str(spec)!r}), "
        f"store={str(root)!r})\n"
        "assert (result.executed, result.from_store) == (0, 2)") == []
    assert loaded_after(
        "import contextlib, io\n"
        "from repro.core.cli import repro_main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro_main(['store', 'stats', '--store', "
        f"{str(root)!r}]) == 0") == []


def test_a_cold_point_loads_the_simulator():
    assert loaded_after(
        "from repro.core.config import BenchmarkConfig\n"
        "from repro.core.suite import MicroBenchmarkSuite\n"
        "MicroBenchmarkSuite().run_config(BenchmarkConfig(\n"
        "    num_pairs=1000, num_maps=2, num_reduces=2))") == list(SIMULATOR)


def test_reexports_resolve_on_first_access():
    """Each package lists, resolves and star-exports its ``__all__``
    without having imported it, and refuses a name it does not have."""
    run_child(f"""
import importlib, sys, types
for name in {PACKAGES!r}:
    package = importlib.import_module(name)
    own = set(vars(package))  # defined in the package, like __version__
    missing = set(package.__all__) - set(dir(package))
    assert not missing, (name, missing)
    try:
        package.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError(name + " resolved an unknown name")
    for attr in set(package.__all__) - own:
        value = getattr(package, attr)
        homes = [module for module_name, module in list(sys.modules.items())
                 if module_name.startswith("repro.")
                 and module_name not in {PACKAGES!r}
                 and getattr(module, attr, None) is value]
        assert homes, (name, attr)
        if isinstance(value, (type, types.FunctionType)):
            home = sys.modules[value.__module__]
            assert getattr(home, value.__name__) is value, (name, attr)
for name in {PACKAGES!r}:
    namespace = {{}}
    exec("from " + name + " import *", namespace)
    missing = set(sys.modules[name].__all__) - set(namespace)
    assert not missing, (name, missing)
""")


def test_pool_loads_the_simulator_before_it_forks():
    out = run_child(
        "import sys\n"
        "import repro.campaign\n"
        "assert 'repro.hadoop.simulation' not in sys.modules\n"
        "pool = repro.campaign.PoolBackend(workers=1)\n"
        "try:\n"
        "    pool.ensure_started()\n"
        "    print('repro.hadoop.simulation' in sys.modules)\n"
        "finally:\n"
        "    pool.close()")
    assert out.split() == ["True"]


def test_worker_loads_the_simulator_before_its_hello():
    out = run_child(
        "import socket, sys, threading\n"
        "from repro.campaign.wire import MSG_HELLO, MSG_SHUTDOWN, "
        "recv_message, send_message\n"
        "from repro.campaign.worker import serve_connection\n"
        "assert 'repro.hadoop.simulation' not in sys.modules\n"
        "ours, theirs = socket.socketpair()\n"
        "worker = threading.Thread(target=serve_connection, args=(theirs,))\n"
        "worker.start()\n"
        "ours.settimeout(60)\n"
        "assert recv_message(ours)[0] == MSG_HELLO\n"
        "print('repro.hadoop.simulation' in sys.modules)\n"
        "send_message(ours, (MSG_SHUTDOWN,))\n"
        "worker.join(60)\n"
        "assert not worker.is_alive()")
    assert out.split() == ["True"]
