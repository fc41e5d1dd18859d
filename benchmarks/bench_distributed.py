"""Distributed-pool benchmark: parity, failover, and (multi-core) speed.

The ``PoolBackend`` fans a campaign's cold units over socket-connected
``repro worker`` processes with heartbeat leases. This module guards
the contract that makes that worth having:

* **Parity, always.** Every run executes the same campaign through the
  default ``LocalBackend`` and through a two-worker pool into fresh
  stores and asserts the stored record texts are byte-identical, key
  for key, and every simulated time hex-exact. Runs in every mode,
  including plain ``pytest benchmarks/bench_distributed.py``.
* **Failover, always.** A third leg runs the pool with the chaos crash
  hook armed — the first dispatch of point 0 SIGKILLs its worker — and
  asserts the campaign still completes with zero quarantines (the unit
  was reassigned, and replay through the content-addressed store is
  idempotent), byte-identical to the undisturbed runs.
* **Speed, when it can exist.** The pool-over-local wall-clock ratio
  is floored under ``PERF_SMOKE=1`` *only on multi-core hosts*
  (``os.cpu_count() >= 2``): two workers on one core cannot beat an
  in-process loop, and pretending otherwise would institutionalize a
  flaky assert. Wall-clock is baselined in
  ``benchmarks/BENCH_distributed.json`` either way.
"""

import os
import pathlib
import tempfile
import time

from _harness import check_or_record, one_shot, record, record_texts

from repro.campaign import Campaign, PoolBackend, run_campaign
from repro.campaign.chaos import ENV_CHAOS_ATTEMPTS, ENV_CHAOS_CRASH
from repro.core.matrix import clear_matrix_cache
from repro.core.suite import clear_result_cache
from repro.net.fabric import clear_link_table_cache
from repro.store import ResultStore

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_distributed.json"

#: Minimum pool(2)-over-local speedup, asserted only when the host has
#: at least 2 cores (see module docstring) and PERF_SMOKE=1. The units
#: are coarse (~0.5 s each), so 2 workers should approach 2x; 1.2
#: keeps loaded CI hosts green.
POOL_SPEEDUP_FLOOR = 1.2

PARAMS = {"num_maps": 8, "num_reduces": 4,
          "key_size": 512, "value_size": 512}


def _campaign() -> Campaign:
    """12 single-trial points → 12 distinct units for 2 workers."""
    return Campaign(
        name="bench-distributed",
        benchmark="MR-AVG",
        shuffle_gbs=(0.2, 0.4, 0.6, 0.8, 1.0, 1.2),
        networks=("1GigE", "ipoib-qdr"),
        trials=1,
        slaves=2,
        params=dict(PARAMS),
    )


def _clear_process_caches() -> None:
    clear_result_cache()
    clear_matrix_cache()
    clear_link_table_cache()


def _run_local(campaign):
    root = tempfile.mkdtemp(prefix="bench-dist-local-")
    _clear_process_caches()
    start = time.perf_counter()
    outcome = run_campaign(campaign, store=ResultStore(root))
    return outcome, time.perf_counter() - start, root


def _run_pool(campaign, chaos: bool = False):
    root = tempfile.mkdtemp(prefix="bench-dist-pool-")
    _clear_process_caches()
    if chaos:
        os.environ[ENV_CHAOS_CRASH] = "0"      # first dispatch of pt 0
        os.environ[ENV_CHAOS_ATTEMPTS] = "1"   # the replay recovers
    backend = PoolBackend(workers=2, lease=10.0)
    try:
        start = time.perf_counter()
        outcome = run_campaign(campaign, store=ResultStore(root),
                               backend=backend)
        seconds = time.perf_counter() - start
        counters = dict(backend.counters)
    finally:
        backend.close()
        if chaos:
            os.environ.pop(ENV_CHAOS_CRASH, None)
            os.environ.pop(ENV_CHAOS_ATTEMPTS, None)
    return outcome, seconds, root, counters


def _assert_parity(local, local_root, pooled, pooled_root) -> None:
    assert local.completed and pooled.completed
    assert pooled.failed == 0 and pooled.backend == "pool"
    local_hex = [o.result.execution_time.hex() for o in local.outcomes]
    pool_hex = [o.result.execution_time.hex() for o in pooled.outcomes]
    assert local_hex == pool_hex, "pool simulated times diverged"
    local_texts = record_texts(local_root)
    assert len(local_texts) == len(local.outcomes)
    assert local_texts == record_texts(pooled_root), (
        "pool store records are not byte-identical to local records"
    )
    counters = ("puts", "hits", "misses")
    local_stats = ResultStore(local_root).stats()
    pool_stats = ResultStore(pooled_root).stats()
    assert ({k: local_stats[k] for k in counters}
            == {k: pool_stats[k] for k in counters})
    assert pool_stats["leases"] == 0  # every lease released


def bench_distributed_pool(benchmark):
    """12-unit campaign: local vs pool vs pool-with-a-murdered-worker."""
    campaign = _campaign()

    def run():
        local, local_seconds, local_root = _run_local(campaign)
        pooled, pool_seconds, pool_root, _ = _run_pool(campaign)
        chaos, chaos_seconds, chaos_root, counters = _run_pool(
            campaign, chaos=True)
        _assert_parity(local, local_root, pooled, pool_root)
        _assert_parity(local, local_root, chaos, chaos_root)
        assert counters["workers_lost"] >= 1, "chaos never fired"
        assert counters["reassignments"] >= 1, (
            "the killed worker's unit was not reassigned")
        return local_seconds, pool_seconds, chaos_seconds, counters

    local_seconds, pool_seconds, chaos_seconds, counters = one_shot(
        benchmark, run)
    speedup = local_seconds / pool_seconds
    cores = os.cpu_count() or 1
    record(
        "perf_distributed_pool",
        f"distributed pool (12 units, 2 workers, {cores} core(s)): "
        f"local {local_seconds:.3f}s, pool {pool_seconds:.3f}s "
        f"({speedup:.2f}x), chaos (1 worker SIGKILLed, "
        f"{counters['reassignments']} reassigned) {chaos_seconds:.3f}s, "
        f"all stores byte-identical",
    )
    if os.environ.get("PERF_SMOKE") and cores >= 2:
        assert speedup >= POOL_SPEEDUP_FLOOR, (
            f"pool speedup {speedup:.2f}x below the "
            f"{POOL_SPEEDUP_FLOOR}x floor on a {cores}-core host "
            f"(local {local_seconds:.3f}s, pool {pool_seconds:.3f}s)"
        )
    check_or_record(
        "distributed_pool_12units",
        {"seconds": pool_seconds, "local_seconds": local_seconds,
         "chaos_seconds": chaos_seconds,
         "speedup": round(speedup, 2), "cores": cores},
        BASELINE_PATH,
        # The pool leg's wall-clock depends on core count; allow extra
        # slack so a baseline recorded on an N-core host doesn't flag
        # an M-core one.
        factor=3.0,
    )
