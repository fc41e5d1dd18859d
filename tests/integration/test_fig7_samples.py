"""Fig. 7 pin: the monitor samples of the three Cluster A runs, hex-exact.

``benchmarks/bench_fig7_utilization.py`` prints rounded CPU % samples
and network peaks; this pins every sample behind them. Each line is
``interconnect|metric|time.hex()|value.hex()`` (metrics sorted, samples
in order), and the SHA-256 of the lines joined by newlines must not
move: a change to how utilization is read may not change a single
float of the CPU, network or disk traces.
"""

import hashlib

from repro.core.config import BenchmarkConfig
from repro.hadoop.cluster import cluster_a
from repro.hadoop.job import JobConf
from repro.hadoop.simulation import run_simulated_job

#: Cluster A, MRv1, MR-AVG at 16 GB, 16 maps / 8 reduces, 1 KB pairs,
#: 2 s samples (the Fig. 7 setup), on each Cluster A network.
NETWORKS = ("1GigE", "10GigE", "ipoib-qdr")
SAMPLE_LINES = 572
SAMPLES_SHA256 = (
    "434106246a0671014afa981a982028b9dd5fb30a1c9a3bc6da915a310d1374be")


def _sample_lines():
    lines = []
    for network in NETWORKS:
        config = BenchmarkConfig.from_shuffle_size(
            16e9, pattern="avg", network=network, num_maps=16,
            num_reduces=8, key_size=512, value_size=512)
        result = run_simulated_job(config, cluster=cluster_a(4),
                                   jobconf=JobConf(version="mrv1"),
                                   monitor_interval=2.0)
        samples = result.monitor.samples
        for metric in sorted(samples):
            for t, v in samples[metric]:
                lines.append(f"{result.interconnect_name}|{metric}|"
                             f"{t.hex()}|{v.hex()}")
    return lines


def test_fig7_monitor_samples_hex_exact():
    lines = _sample_lines()
    assert len(lines) == SAMPLE_LINES
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SAMPLES_SHA256
