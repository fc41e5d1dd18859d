"""Shuffle matrices: who sends how much to whom.

The simulator needs, for every (map task, reduce task) pair, the number
of intermediate records — and therefore bytes — the reducer fetches
from that map's host. This module produces that matrix by *running the
configured partitioner*:

* exactly, replaying the partitioner's draws pair by pair, when the
  per-map pair count is small enough (tests, functional engine
  cross-validation, the service's small cold points); or
* via a seeded multinomial draw from the partitioner's
  ``expected_distribution()`` when a map generates millions of pairs
  (a 64 GB / 1 KB sweep point has 6.4e7 records; looping in Python
  would dominate the harness). The two paths agree in distribution;
  the test suite checks the exact path against the sampled one.

MR-AVG bypasses sampling entirely — round-robin is deterministic and
the exact counts have a closed form.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.core.config import BenchmarkConfig, PATTERN_AVG
from repro.core.datagen import KeyValueGenerator
from repro.core.partitioners import (
    make_partitioner,
    seat_generator,
    thread_generator,
)

#: Per-map record count above which the sampled path is used.
EXACT_LIMIT = 250_000


class ShuffleMatrix:
    """Record and byte counts per (map, reduce) cell."""

    def __init__(self, config: BenchmarkConfig, records: np.ndarray):
        if records.shape != (config.num_maps, config.num_reduces):
            raise ValueError(
                f"matrix shape {records.shape} does not match "
                f"{config.num_maps} maps x {config.num_reduces} reduces"
            )
        self.config = config
        self.records = records.astype(np.int64)

    @property
    def bytes(self) -> np.ndarray:
        """On-wire bytes per cell (records x exact record size)."""
        return self.records * self.config.record_size

    def records_for_reducer(self, reduce_id: int) -> int:
        return int(self.records[:, reduce_id].sum())

    def bytes_for_reducer(self, reduce_id: int) -> int:
        return self.records_for_reducer(reduce_id) * self.config.record_size

    def records_for_map(self, map_id: int) -> int:
        return int(self.records[map_id, :].sum())

    def bytes_for_map(self, map_id: int) -> int:
        return self.records_for_map(map_id) * self.config.record_size

    @property
    def total_records(self) -> int:
        return int(self.records.sum())

    @property
    def total_bytes(self) -> int:
        return self.total_records * self.config.record_size

    def reducer_loads(self) -> List[int]:
        """Per-reducer record totals (the skew signature)."""
        return [self.records_for_reducer(r) for r in range(self.config.num_reduces)]


def _exact_counts(config: BenchmarkConfig, map_id: int) -> np.ndarray:
    """Run the real partitioner over the map's record stream."""
    partitioner = make_partitioner(
        config.pattern, config.num_reduces, seed=config.seed + map_id
    )
    if not partitioner.uses_keys:
        # The pattern partitioners are index/PRNG driven, so the counts
        # come from exact_counts' bit-identical replay of the draw
        # sequence — no key/value objects are materialized.
        return partitioner.exact_counts(config.pairs_for_map(map_id))
    gen = KeyValueGenerator(config, map_id)
    counts = np.zeros(config.num_reduces, dtype=np.int64)
    value = None
    for key, value in gen:
        counts[partitioner.get_partition(key, value)] += 1
    return counts


def _sampled_counts(config: BenchmarkConfig, map_id: int) -> np.ndarray:
    """Multinomial draw matching the partitioner's limit distribution."""
    partitioner = make_partitioner(
        config.pattern, config.num_reduces, seed=config.seed + map_id
    )
    probs = np.asarray(partitioner.expected_distribution())
    rng = np.random.default_rng(config.seed * 1_000_003 + map_id)
    return rng.multinomial(config.pairs_for_map(map_id), probs).astype(np.int64)


def _avg_matrix(config: BenchmarkConfig) -> np.ndarray:
    """Closed-form round-robin matrix: one row per distinct map size.

    Each map splits its pairs evenly, the first ``pairs % num_reduces``
    reducers getting one extra. ``pairs_for_map`` takes at most two
    values across the map axis (``base`` and ``base + 1``), so the full
    matrix has at most two distinct rows: build each once and stack.
    """
    row_of: dict = {}
    rows = []
    for map_id in range(config.num_maps):
        pairs = config.pairs_for_map(map_id)
        row = row_of.get(pairs)
        if row is None:
            base, extra = divmod(pairs, config.num_reduces)
            row = np.full(config.num_reduces, base, dtype=np.int64)
            row[:extra] += 1
            row_of[pairs] = row
        rows.append(row)
    return np.vstack(rows)


def _pattern_matrix(config: BenchmarkConfig, exact_limit: int) -> np.ndarray:
    """The matrix of a PRNG-driven pattern, one map row at a time.

    Map ``m``'s partitioner is seeded ``config.seed + m``. An exact row
    seats the thread's ``MT19937`` at that seed's ``random.Random`` state
    and runs the partitioner's row kernel, which counts the same pairs
    ``exact_counts`` would without touching a Python PRNG; a row above
    ``exact_limit`` is sampled.
    """
    partitioner = make_partitioner(config.pattern, config.num_reduces,
                                   seed=config.seed)
    mt = thread_generator()
    rows = []
    for map_id in range(config.num_maps):
        pairs = config.pairs_for_map(map_id)
        if pairs > exact_limit:
            rows.append(_sampled_counts(config, map_id))
        elif partitioner.uses_keys:
            rows.append(_exact_counts(config, map_id))
        else:
            seat_generator(mt, random.Random(config.seed + map_id).getstate())
            rows.append(partitioner.row_counts(mt, pairs)[0])
    return np.vstack(rows)


#: Record matrices keyed by the fields that determine them. The matrix
#: is independent of the network/cluster, so sweep points that differ
#: only in interconnect share one computation.
_MATRIX_CACHE: dict = {}

#: Most matrices the cache holds before it starts over: far above the
#: 34 the shipped figure specs need, so only a long-lived process (a
#: ``repro serve`` answering distinct cold points) ever reaches it.
MATRIX_CACHE_LIMIT = 512


def clear_matrix_cache() -> None:
    """Drop all cached shuffle matrices (mainly for tests)."""
    _MATRIX_CACHE.clear()


def matrix_cache_key(
    config: BenchmarkConfig, exact_limit: int = EXACT_LIMIT
) -> tuple:
    """The fields of ``config`` that determine its shuffle matrix.

    Two configs with equal keys share one (bit-identical) matrix. The
    matrix is network/cluster independent, and for MR-AVG it is also
    seed independent (round-robin has a closed form that never touches
    a PRNG), so the AVG key normalizes the seed away — trials of an
    MR-AVG sweep all share a single matrix.
    """
    seed = None if config.pattern == PATTERN_AVG else config.seed
    return (config.pattern, config.num_maps, config.num_reduces,
            config.num_pairs, seed, exact_limit)


def compute_shuffle_matrix(
    config: BenchmarkConfig, exact_limit: int = EXACT_LIMIT
) -> ShuffleMatrix:
    """Build the (maps x reduces) record-count matrix for a config.

    Matrices are memoized process-wide on :func:`matrix_cache_key`; the
    memo starts over once it holds :data:`MATRIX_CACHE_LIMIT` of them.
    """
    key = matrix_cache_key(config, exact_limit)
    records = _MATRIX_CACHE.get(key)
    if records is None:
        if config.pattern == PATTERN_AVG:
            records = _avg_matrix(config)
        else:
            records = _pattern_matrix(config, exact_limit)
        if len(_MATRIX_CACHE) >= MATRIX_CACHE_LIMIT:
            _MATRIX_CACHE.clear()
        _MATRIX_CACHE[key] = records
    return ShuffleMatrix(config, records)


def precompute_matrices(
    configs, exact_limit: int = EXACT_LIMIT
) -> int:
    """Warm the matrix cache for a batch of configs (deduplicated).

    Campaign batch plans call this once per execution with the
    equivalence-class representatives, so matrix generation happens in
    one up-front pass (attributed to shared setup) instead of lazily
    inside each simulation. Returns the number of matrices actually
    computed (cache misses).
    """
    computed = 0
    seen = set()
    for config in configs:
        key = matrix_cache_key(config, exact_limit)
        if key in seen or key in _MATRIX_CACHE:
            continue
        seen.add(key)
        compute_shuffle_matrix(config, exact_limit)
        computed += 1
    return computed
