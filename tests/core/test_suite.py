"""Tests for the MicroBenchmarkSuite runner and sweeps."""

import pytest

from repro import MicroBenchmarkSuite, cluster_a
from repro.core import BenchmarkConfig, MR_SKEW
from repro.core import suite as suite_mod
from repro.core.suite import clear_result_cache, result_cache_stats


@pytest.fixture(scope="module")
def suite():
    return MicroBenchmarkSuite(cluster=cluster_a(2))


SMALL = dict(num_maps=4, num_reduces=2, key_size=512, value_size=512)


class TestSingleRuns:
    def test_run_by_name(self, suite):
        result = suite.run("MR-AVG", shuffle_gb=0.5, **SMALL)
        assert result.execution_time > 0
        assert result.config.pattern == "avg"

    def test_run_by_benchmark_object(self, suite):
        result = suite.run(MR_SKEW, shuffle_gb=0.5, **SMALL)
        assert result.config.pattern == "skew"

    def test_run_with_num_pairs(self, suite):
        result = suite.run("MR-RAND", num_pairs=10_000, **SMALL)
        assert result.config.num_pairs == 10_000

    def test_run_config(self, suite):
        config = BenchmarkConfig(num_pairs=10_000, **SMALL)
        result = suite.run_config(config)
        assert result.config is config

    def test_monitor_passthrough(self, suite):
        result = suite.run("MR-AVG", shuffle_gb=0.5, monitor_interval=1.0,
                           **SMALL)
        assert result.monitor is not None

    def test_default_cluster_is_paper_cluster_a(self):
        s = MicroBenchmarkSuite()
        assert s.cluster.num_slaves == 4
        assert s.cluster.node.cores == 8


class TestSweeps:
    @pytest.fixture(scope="class")
    def sweep(self):
        suite = MicroBenchmarkSuite(cluster=cluster_a(2))
        return suite.sweep("MR-AVG", [0.25, 0.5], ["1GigE", "ipoib-qdr"],
                           **SMALL)

    def test_grid_complete(self, sweep):
        assert len(sweep.rows) == 4
        assert set(sweep.networks()) == {"1GigE", "IPoIB-QDR(32Gbps)"}
        assert sweep.sizes() == [0.25, 0.5]

    def test_series(self, sweep):
        sizes, times = sweep.series("1GigE")
        assert sizes == [0.25, 0.5]
        assert times[1] > times[0]  # monotone in data size

    def test_series_unknown_network(self, sweep):
        with pytest.raises(KeyError):
            sweep.series("token-ring")

    def test_time_lookup(self, sweep):
        assert sweep.time("1GigE", 0.5) > 0
        with pytest.raises(KeyError):
            sweep.time("1GigE", 99.0)

    def test_improvement_positive_for_faster_network(self, sweep):
        pct = sweep.improvement("1GigE", "IPoIB-QDR(32Gbps)")
        assert pct > 0

    def test_to_table_renders(self, sweep):
        table = sweep.to_table(title="Fig. 2(a)")
        assert "Fig. 2(a)" in table
        assert "1GigE" in table
        assert "Shuffle (GB)" in table


def test_compare_patterns(suite):
    out = suite.compare_patterns(0.25, ["1GigE"], **SMALL)
    assert set(out) == {"MR-AVG", "MR-RAND", "MR-SKEW"}
    avg = out["MR-AVG"].time("1GigE", 0.25)
    skew = out["MR-SKEW"].time("1GigE", 0.25)
    assert skew > avg


class TestResultMemoBound:
    def test_memo_stays_within_its_limit(self, monkeypatch):
        """More distinct points than the limit: the memo starts over
        instead of growing, and a re-run returns the same times."""
        monkeypatch.setattr(suite_mod, "RESULT_CACHE_LIMIT", 3)
        clear_result_cache()
        suite = MicroBenchmarkSuite(cluster=cluster_a(2))
        configs = [BenchmarkConfig(pattern="rand", num_pairs=2_000,
                                   seed=seed, **SMALL)
                   for seed in range(7)]
        try:
            first = [suite.run_config(c).execution_time.hex()
                     for c in configs]
            assert result_cache_stats()["size"] <= 3
            again = [suite.run_config(c).execution_time.hex()
                     for c in configs]
            assert result_cache_stats()["size"] <= 3
        finally:
            clear_result_cache()
        assert again == first
