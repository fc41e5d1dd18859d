"""The suite ↔ store contract: warm starts across processes.

The disk store backs the in-process memo cache: a fresh process (here
simulated with ``clear_result_cache``, and proven for real processes by
the PYTHONHASHSEED subprocess test in ``test_keys.py`` plus the CLI
acceptance test) serves previously-simulated points from disk,
bit-identically, executing zero simulations. Every test runs against
both store root spellings.
"""

import pytest

from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.hadoop.cluster import cluster_a
from repro.hadoop.result import SimJobResult
from repro.store import ResultStore, StoredResult

from tests.store.conftest import store_root


def tiny_config(network="1GigE", **overrides):
    kwargs = dict(num_maps=4, num_reduces=2, key_size=256, value_size=256)
    kwargs.update(overrides)
    return BenchmarkConfig.from_shuffle_size(2e7, pattern="avg",
                                             network=network, **kwargs)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_cache()
    yield
    clear_result_cache()


class TestWarmStart:
    def test_cold_run_is_live_then_warm_run_is_stored(self, tmp_path,
                                                      root_kind):
        root = store_root(tmp_path, root_kind)
        cold = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        live = cold.run_config(tiny_config())
        assert isinstance(live, SimJobResult)

        clear_result_cache()  # simulate a fresh process
        warm = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        stored = warm.run_config(tiny_config())
        assert isinstance(stored, StoredResult)
        assert stored.cached is True
        assert stored.execution_time.hex() == live.execution_time.hex()

    def test_warm_run_executes_zero_simulations(self, tmp_path,
                                                root_kind):
        root = store_root(tmp_path, root_kind)
        configs = [tiny_config(), tiny_config(network="ipoib-qdr")]
        cold = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        for config in configs:
            cold.run_config(config)
        puts_after_cold = ResultStore(root).stats()["puts"]
        assert puts_after_cold == 2

        clear_result_cache()
        warm = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        for config in configs:
            warm.run_config(config)
        # puts unmoved = nothing was simulated on the warm pass.
        assert ResultStore(root).stats()["puts"] == puts_after_cold

    def test_alias_network_hits_canonical_record(self, tmp_path,
                                                 root_kind):
        root = store_root(tmp_path, root_kind)
        cold = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        live = cold.run_config(tiny_config(network="IPoIB-QDR(32Gbps)"))

        clear_result_cache()
        warm = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        stored = warm.run_config(tiny_config(network="ipoib-qdr"))
        assert isinstance(stored, StoredResult)
        assert stored.execution_time.hex() == live.execution_time.hex()

    def test_store_path_is_coerced(self, tmp_path, root_kind):
        suite = MicroBenchmarkSuite(
            cluster=cluster_a(2),
            store=store_root(tmp_path, root_kind))
        assert isinstance(suite.store, ResultStore)
        assert suite.store.stats()["backend"] == "sqlite"

    def test_memo_hit_short_circuits_the_store(self, tmp_path,
                                               root_kind):
        root = store_root(tmp_path, root_kind)
        suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        suite.run_config(tiny_config())
        suite.run_config(tiny_config())  # memo hit, no store read
        assert ResultStore(root).stats()["hits"] == 0


class TestBypasses:
    def test_memoize_false_bypasses_the_store(self, tmp_path,
                                              root_kind):
        root = store_root(tmp_path, root_kind)
        suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        result = suite.run_config(tiny_config(), memoize=False)
        assert isinstance(result, SimJobResult)
        assert ResultStore(root).stats()["puts"] == 0

    def test_monitored_runs_are_never_stored(self, tmp_path,
                                             root_kind):
        root = store_root(tmp_path, root_kind)
        suite = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        result = suite.run_config(tiny_config(), monitor_interval=1.0)
        assert isinstance(result, SimJobResult)
        assert ResultStore(root).stats()["puts"] == 0


class TestSweepThroughStore:
    def test_sweep_warm_start_is_bit_identical(self, tmp_path,
                                               root_kind):
        root = store_root(tmp_path, root_kind)
        kwargs = dict(num_maps=4, num_reduces=2,
                      key_size=256, value_size=256)
        cold = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        first = cold.sweep("MR-AVG", [0.02, 0.04], ["1GigE", "ipoib-qdr"],
                           **kwargs)
        puts = ResultStore(root).stats()["puts"]
        assert puts == 4

        clear_result_cache()
        warm = MicroBenchmarkSuite(cluster=cluster_a(2), store=root)
        second = warm.sweep("MR-AVG", [0.02, 0.04], ["1GigE", "ipoib-qdr"],
                            jobs=2, **kwargs)
        assert ResultStore(root).stats()["puts"] == puts
        for a, b in zip(first.rows, second.rows):
            assert a.execution_time.hex() == b.execution_time.hex()
            assert isinstance(b.result, StoredResult)
