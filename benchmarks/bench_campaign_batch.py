"""Batch-vs-loop campaign benchmark: speedup with byte-exact parity.

The campaign batch scheduler (``repro.campaign.batch``) collapses
simulation-equivalent points — trials of a seed-independent MR-AVG
sweep, alias spellings of one network — onto a single simulation and
replicates the stored result. This module guards both halves of that
contract:

* **Parity, always.** Every run executes the same campaign through the
  strict per-point loop (``batch=False``) and the batch scheduler
  (``batch=True``) into two fresh stores and asserts the stored record
  texts are byte-identical, key for key, and every outcome's simulated
  time is hex-exact. This assertion runs in every mode, including plain
  ``pytest benchmarks/bench_campaign_batch.py``.
* **Speed, guarded.** The batch/loop wall-clock ratio of the small
  campaign is floored at :data:`SMALL_SPEEDUP_FLOOR` under
  ``PERF_SMOKE=1`` and recorded in ``benchmarks/BENCH_campaign.json``
  via the shared baseline workflow (see ``bench_perf_regression.py``).

The acceptance-scale measurement — a 1000-point campaign, ≥5x — is in
:func:`bench_campaign_batch_1000_points`, which only runs under
``PERF_FULL=1`` or ``PERF_BASELINE=1`` (it simulates the thousand
points through the per-point loop once, which is exactly the cost the
batch path exists to avoid).
"""

import os
import pathlib
import tempfile
import time

from _harness import check_or_record, one_shot, record, record_texts

from repro.campaign import Campaign, run_campaign
from repro.core.matrix import clear_matrix_cache
from repro.core.suite import clear_result_cache
from repro.net.fabric import clear_link_table_cache
from repro.store import ResultStore

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_campaign.json"

#: Minimum batch-over-loop speedup for the small smoke campaign. The
#: small grid collapses 60 points onto 4 simulations, so the honest
#: floor is well above this; 2.0 keeps slow/loaded CI hosts green.
SMALL_SPEEDUP_FLOOR = 2.0

#: Minimum speedup for the 1000-point acceptance campaign (the ISSUE
#: target).
FULL_SPEEDUP_FLOOR = 5.0

SMALL_PARAMS = {"num_maps": 8, "num_reduces": 4,
                "key_size": 512, "value_size": 512}


def _small_campaign() -> Campaign:
    """60 points: 2 sizes x 2 networks x 15 trials, 4 residue classes."""
    return Campaign(
        name="bench-batch-small",
        benchmark="MR-AVG",
        shuffle_gbs=(0.05, 0.1),
        networks=("1GigE", "ipoib-qdr"),
        trials=15,
        slaves=2,
        params=dict(SMALL_PARAMS),
    )


def _full_campaign() -> Campaign:
    """1000 points: 5 sizes x 5 networks x 40 trials, 25 classes."""
    return Campaign(
        name="bench-batch-1000",
        benchmark="MR-AVG",
        shuffle_gbs=(0.05, 0.1, 0.2, 0.4, 0.8),
        networks=("1GigE", "10GigE", "ipoib-qdr", "ipoib-fdr", "rdma"),
        trials=40,
        slaves=2,
        params=dict(SMALL_PARAMS),
    )


def _clear_process_caches() -> None:
    """Reset every process-wide cache so each phase starts cold."""
    clear_result_cache()
    clear_matrix_cache()
    clear_link_table_cache()


def _run_mode(campaign: Campaign, batch: bool):
    """One cold campaign pass; returns (CampaignResult, seconds, root)."""
    root = tempfile.mkdtemp(prefix=f"bench-batch-{batch}-")
    _clear_process_caches()
    start = time.perf_counter()
    outcome = run_campaign(campaign, store=ResultStore(root), batch=batch)
    return outcome, time.perf_counter() - start, root


def _assert_parity(campaign: Campaign, loop, batch,
                   loop_root, batch_root) -> None:
    """Batch results must be indistinguishable from loop results."""
    assert loop.completed and batch.completed
    assert loop.executed == batch.executed == len(loop.outcomes)
    loop_hex = [o.result.execution_time.hex() for o in loop.outcomes]
    batch_hex = [o.result.execution_time.hex() for o in batch.outcomes]
    assert loop_hex == batch_hex, "batch simulated times diverged"
    loop_texts = record_texts(loop_root)
    assert len(loop_texts) == len(loop.outcomes)
    assert loop_texts == record_texts(batch_root), (
        "batch store records are not byte-identical to loop records"
    )
    counters = ("puts", "hits", "misses")
    loop_stats = ResultStore(loop_root).stats()
    batch_stats = ResultStore(batch_root).stats()
    assert ({k: loop_stats[k] for k in counters}
            == {k: batch_stats[k] for k in counters})


def bench_campaign_batch_small(benchmark):
    """60-point campaign, loop vs batch: parity always, floor in smoke."""
    campaign = _small_campaign()

    def run():
        loop, loop_seconds, loop_root = _run_mode(campaign, batch=False)
        batch, batch_seconds, batch_root = _run_mode(campaign, batch=True)
        _assert_parity(campaign, loop, batch, loop_root, batch_root)
        return loop, batch, loop_seconds, batch_seconds

    loop, batch, loop_seconds, batch_seconds = one_shot(benchmark, run)
    speedup = loop_seconds / batch_seconds
    record(
        "perf_campaign_batch_small",
        f"campaign batch (60 pts, {batch.unique_simulations} unique): "
        f"loop {loop_seconds:.3f}s, batch {batch_seconds:.3f}s "
        f"({speedup:.1f}x), stores byte-identical",
    )
    if os.environ.get("PERF_SMOKE"):
        assert speedup >= SMALL_SPEEDUP_FLOOR, (
            f"batch speedup {speedup:.2f}x below the "
            f"{SMALL_SPEEDUP_FLOOR}x floor "
            f"(loop {loop_seconds:.3f}s, batch {batch_seconds:.3f}s)"
        )
    check_or_record(
        "campaign_batch_small_60pts",
        {"seconds": batch_seconds, "loop_seconds": loop_seconds,
         "speedup": round(speedup, 2),
         "unique_simulations": batch.unique_simulations},
        BASELINE_PATH,
    )


def bench_campaign_batch_1000_points(benchmark):
    """The ISSUE acceptance run: 1000 points, >=5x, hex-exact.

    Skipped unless ``PERF_FULL=1`` or ``PERF_BASELINE=1`` — the loop
    leg alone simulates 1000 points one at a time.
    """
    import pytest

    if not (os.environ.get("PERF_FULL") or os.environ.get("PERF_BASELINE")):
        pytest.skip("set PERF_FULL=1 (or PERF_BASELINE=1) to run the "
                    "1000-point acceptance benchmark")
    campaign = _full_campaign()

    def run():
        loop, loop_seconds, loop_root = _run_mode(campaign, batch=False)
        batch, batch_seconds, batch_root = _run_mode(campaign, batch=True)
        _assert_parity(campaign, loop, batch, loop_root, batch_root)
        return loop, batch, loop_seconds, batch_seconds

    loop, batch, loop_seconds, batch_seconds = one_shot(benchmark, run)
    speedup = loop_seconds / batch_seconds
    record(
        "perf_campaign_batch_1000",
        f"campaign batch (1000 pts, {batch.unique_simulations} unique): "
        f"loop {loop_seconds:.2f}s, batch {batch_seconds:.2f}s "
        f"({speedup:.1f}x), stores byte-identical",
    )
    assert speedup >= FULL_SPEEDUP_FLOOR, (
        f"1000-point batch speedup {speedup:.2f}x below the "
        f"{FULL_SPEEDUP_FLOOR}x acceptance floor"
    )
    check_or_record(
        "campaign_batch_1000pts",
        {"seconds": batch_seconds, "loop_seconds": loop_seconds,
         "speedup": round(speedup, 2),
         "unique_simulations": batch.unique_simulations},
        BASELINE_PATH,
    )
