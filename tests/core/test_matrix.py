"""Tests for shuffle-matrix computation."""

import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import load_campaigns
from repro.core import BenchmarkConfig, compute_shuffle_matrix
from repro.core import matrix as matrix_mod
from repro.core import partitioners
from repro.core.matrix import (
    EXACT_LIMIT,
    ShuffleMatrix,
    _exact_counts,
    _sampled_counts,
    clear_matrix_cache,
)
from repro.core.partitioners import make_partitioner

SPEC_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "campaigns"


def cfg(**kw):
    defaults = dict(num_pairs=8000, num_maps=4, num_reduces=8,
                    key_size=16, value_size=48)
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


def test_record_conservation_all_patterns():
    for pattern in ("avg", "rand", "skew"):
        config = cfg(pattern=pattern)
        matrix = compute_shuffle_matrix(config)
        assert matrix.total_records == config.num_pairs


def test_shape_validation():
    config = cfg()
    with pytest.raises(ValueError):
        ShuffleMatrix(config, np.zeros((2, 2)))


def test_avg_matrix_is_exactly_even():
    config = cfg(pattern="avg", num_pairs=6400)
    matrix = compute_shuffle_matrix(config)
    loads = matrix.reducer_loads()
    assert max(loads) - min(loads) <= config.num_maps  # +-1 per map


def test_avg_closed_form_matches_real_partitioner():
    """The analytic round-robin split equals actually running
    AveragePartitioner over the stream."""
    config = cfg(pattern="avg", num_pairs=1003, num_maps=3, num_reduces=7)
    matrix = compute_shuffle_matrix(config)
    for map_id in range(config.num_maps):
        exact = _exact_counts(config, map_id)
        assert np.array_equal(matrix.records[map_id], exact)


def test_skew_matrix_reducer0_dominates():
    config = cfg(pattern="skew", num_pairs=80_000)
    matrix = compute_shuffle_matrix(config)
    loads = matrix.reducer_loads()
    assert loads[0] > 0.5 * sum(loads)
    assert loads[0] > 3 * max(loads[3:])


def test_bytes_accounting():
    config = cfg()
    matrix = compute_shuffle_matrix(config)
    assert matrix.total_bytes == config.num_pairs * config.record_size
    assert matrix.bytes_for_reducer(0) == (
        matrix.records_for_reducer(0) * config.record_size
    )
    assert matrix.bytes_for_map(0) == matrix.records_for_map(0) * config.record_size
    assert matrix.bytes.sum() == matrix.total_bytes


def test_map_row_totals():
    config = cfg()
    matrix = compute_shuffle_matrix(config)
    for map_id in range(config.num_maps):
        assert matrix.records_for_map(map_id) == config.pairs_for_map(map_id)


def test_sampled_path_used_for_large_counts():
    """Above the exact limit the multinomial path still conserves records."""
    config = cfg(pattern="rand", num_pairs=4_000_000)
    matrix = compute_shuffle_matrix(config, exact_limit=1000)
    assert matrix.total_records == config.num_pairs


def test_sampled_matches_exact_in_distribution():
    """Exact and sampled paths agree on reducer shares within noise."""
    config = cfg(pattern="skew", num_pairs=200_000, num_maps=1)
    exact = _exact_counts(config, 0).astype(float)
    sampled = _sampled_counts(config, 0).astype(float)
    exact /= exact.sum()
    sampled /= sampled.sum()
    np.testing.assert_allclose(exact, sampled, atol=0.01)


def test_float_seed_spelling_samples_the_int_seeds_matrix():
    """A 2 GB MR-RAND point samples its rows; seed 7.0 must seed numpy
    as 7 does, then simulate to the same time."""
    from repro.core.suite import run_simulated_job

    configs = [BenchmarkConfig.from_shuffle_size(
        2e9, pattern="rand", num_maps=2, num_reduces=2, seed=seed)
        for seed in (7.0, 7)]
    assert configs[0].pairs_for_map(0) > EXACT_LIMIT  # sampled rows
    matrices, times = [], []
    for config in configs:
        clear_matrix_cache()  # 7 and 7.0 share one memo entry
        matrices.append(compute_shuffle_matrix(config).records)
        times.append(run_simulated_job(config).execution_time.hex())
    assert np.array_equal(matrices[0], matrices[1])
    assert times[0] == times[1]


def test_deterministic():
    config = cfg(pattern="rand")
    a = compute_shuffle_matrix(config)
    b = compute_shuffle_matrix(config)
    assert np.array_equal(a.records, b.records)


def test_matrix_is_nonnegative():
    for pattern in ("avg", "rand", "skew"):
        matrix = compute_shuffle_matrix(cfg(pattern=pattern))
        assert (matrix.records >= 0).all()


# -- the one-generator row path against per-partitioner rows --------------

def _oracle_matrix(config, exact_limit):
    """The matrix built one fresh partitioner per map row: each exact
    row from ``exact_counts`` (its own generators and PRNG round trip),
    each row above ``exact_limit`` from the multinomial sample."""
    rows = []
    for map_id in range(config.num_maps):
        pairs = config.pairs_for_map(map_id)
        if pairs <= exact_limit:
            partitioner = make_partitioner(
                config.pattern, config.num_reduces,
                seed=config.seed + map_id)
            rows.append(partitioner.exact_counts(pairs))
        else:
            rows.append(_sampled_counts(config, map_id))
    return np.vstack(rows)


def _limit(config, rows):
    """An ``exact_limit`` making the config's rows all exact, all
    sampled, or exact for the smaller maps and sampled for the larger
    (rows differ by at most one pair)."""
    sizes = [config.pairs_for_map(m) for m in range(config.num_maps)]
    return {"exact": max(sizes), "sampled": min(sizes) - 1,
            "mixed": min(sizes)}[rows]


@given(
    pattern=st.sampled_from(("rand", "skew", "zipf", "skew-split")),
    num_maps=st.integers(1, 6),
    num_reduces=st.integers(1, 40),
    # Past 2**32 a seed takes a multi-word init_by_array key.
    seed=st.integers(0, 2**40),
    num_pairs=st.integers(1, 60_000),
    rows=st.sampled_from(("exact", "sampled", "mixed")),
)
@settings(max_examples=120, deadline=None)
def test_matrix_matches_per_partitioner_rows(
        pattern, num_maps, num_reduces, seed, num_pairs, rows):
    config = BenchmarkConfig(pattern=pattern, num_maps=num_maps,
                             num_reduces=num_reduces, seed=seed,
                             num_pairs=num_pairs, key_size=16,
                             value_size=48)
    limit = _limit(config, rows)
    clear_matrix_cache()
    got = compute_shuffle_matrix(config, exact_limit=limit).records
    assert np.array_equal(got, _oracle_matrix(config, limit))


def _figure_configs():
    """The 4 GB config of Fig. 2(b), 2(c), 3(b) and 3(c)."""
    configs = {}
    for name in ("fig2.json", "fig3.json"):
        for campaign in load_campaigns(SPEC_DIR / name):
            if campaign.name[-1] in "bc":
                point = next(p for p in campaign.points()
                             if p.shuffle_gb == 4.0)
                configs[campaign.name] = point.config
    return configs


@pytest.mark.parametrize("figure", ("fig2b", "fig2c", "fig3b", "fig3c"))
def test_figure_rows_match_exact_counts(figure):
    """The first and last map rows of a whole figure-scale matrix."""
    config = _figure_configs()[figure]
    clear_matrix_cache()
    records = compute_shuffle_matrix(config).records
    for map_id in (0, config.num_maps - 1):
        pairs = config.pairs_for_map(map_id)
        assert pairs <= EXACT_LIMIT  # an exact row, not a sample
        partitioner = make_partitioner(config.pattern, config.num_reduces,
                                       seed=config.seed + map_id)
        assert np.array_equal(records[map_id],
                              partitioner.exact_counts(pairs))


def test_one_generator_per_matrix_and_no_prng_round_trip(monkeypatch):
    """An 8-map MR-RAND matrix seats one generator for all its rows and
    never advances a Python PRNG; the thread's next matrix reuses it."""
    built = []
    real = np.random.MT19937

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    def refuse(*_args):
        raise AssertionError("the matrix advanced a Python PRNG")

    config = cfg(pattern="rand", num_maps=8, num_pairs=96_000, seed=424242)
    other = cfg(pattern="skew", num_maps=8, num_pairs=96_000, seed=7)
    want = [_oracle_matrix(c, EXACT_LIMIT) for c in (config, other)]
    clear_matrix_cache()
    # A thread with no generator yet, so the first matrix builds one.
    monkeypatch.setattr(partitioners, "_GENERATORS", threading.local())
    monkeypatch.setattr(np.random, "MT19937", counting)
    monkeypatch.setattr(partitioners, "_advance_rng", refuse)
    got = compute_shuffle_matrix(config).records
    assert len(built) == 1
    assert np.array_equal(got, want[0])
    assert np.array_equal(compute_shuffle_matrix(other).records, want[1])
    assert len(built) == 1


def test_each_thread_seats_its_own_generator():
    """Matrices built on two threads at once match the oracle: the
    threads never share the generator they seat."""
    configs = [cfg(pattern=pattern, num_maps=6, num_pairs=60_000, seed=seed)
               for pattern in ("rand", "skew", "zipf") for seed in (3, 11)]
    want = [_oracle_matrix(c, EXACT_LIMIT) for c in configs]
    got = {}
    generators = set()
    start = threading.Barrier(2)

    def build(half):
        start.wait()
        generators.add(id(partitioners.thread_generator()))
        for _round in range(5):
            for index in half:
                clear_matrix_cache()
                got.setdefault(index, []).append(
                    compute_shuffle_matrix(configs[index]).records)

    threads = [threading.Thread(target=build, args=(range(i, 6, 2),))
               for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(generators) == 2
    for index, matrices in got.items():
        assert all(np.array_equal(m, want[index]) for m in matrices)


def test_matrix_memo_stays_within_its_limit(monkeypatch):
    monkeypatch.setattr(matrix_mod, "MATRIX_CACHE_LIMIT", 3)
    clear_matrix_cache()
    configs = [cfg(pattern="rand", seed=seed) for seed in range(7)]
    first = [compute_shuffle_matrix(c).records for c in configs]
    assert len(matrix_mod._MATRIX_CACHE) <= 3
    again = [compute_shuffle_matrix(c).records for c in configs]
    assert len(matrix_mod._MATRIX_CACHE) <= 3
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
