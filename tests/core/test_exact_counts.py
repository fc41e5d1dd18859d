"""Bit-exact equivalence of the vectorized ``exact_counts`` paths
against the per-record ``get_partition`` loop.

``exact_counts`` must produce (a) the identical per-reducer counts and
(b) the identical PRNG state afterwards, for every pattern, reducer
count (powers of two take no rejection draws; others do) and pair count
(including refill-boundary sizes, MR-SKEW's replay-window edges and
whole figure-scale map rows).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partitioners
from repro.core.config import BenchmarkConfig
from repro.core.partitioners import SkewedPartitioner, make_partitioner

PATTERNS = ("avg", "rand", "skew", "zipf", "skew-split")
SKEW_PATTERNS = ("skew", "skew-split")

#: (maps, reduces) of Fig. 2(c) on MRv1 and Fig. 3(c) on YARN.
FIGURE_SHAPES = {"fig2c": (16, 8), "fig3c": (32, 16)}


def _loop_counts(partitioner, n_pairs):
    counts = [0] * partitioner.num_reduces
    for _ in range(n_pairs):
        counts[partitioner.get_partition(None, None)] += 1
    return counts


def _state(partitioner):
    rng = getattr(partitioner, "_rng", None)
    pieces = [rng.getstate() if rng is not None else None,
              getattr(partitioner, "_next", None),
              getattr(partitioner, "_spread", None)]
    return pieces


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("num_reduces", [1, 2, 3, 8, 9, 12, 16, 31])
def test_counts_and_state_match_loop(pattern, num_reduces):
    n_pairs = 5_000
    fast = make_partitioner(pattern, num_reduces, seed=20140901)
    slow = make_partitioner(pattern, num_reduces, seed=20140901)
    got = fast.exact_counts(n_pairs)
    want = _loop_counts(slow, n_pairs)
    assert got.tolist() == want
    assert _state(fast) == _state(slow)
    # The next draws must also agree (state really is in sync).
    assert fast.get_partition(None, None) == slow.get_partition(None, None)


@given(
    pattern=st.sampled_from(PATTERNS),
    num_reduces=st.integers(1, 24),
    n_pairs=st.integers(0, 2_000),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_counts_match_loop_property(pattern, num_reduces, n_pairs, seed):
    fast = make_partitioner(pattern, num_reduces, seed=seed)
    slow = make_partitioner(pattern, num_reduces, seed=seed)
    assert fast.exact_counts(n_pairs).tolist() == _loop_counts(slow, n_pairs)
    assert _state(fast) == _state(slow)


@pytest.mark.parametrize("pattern", ("rand", "skew"))
def test_sequential_calls_continue_the_stream(pattern):
    """Two exact_counts calls == one loop over the combined pairs."""
    fast = make_partitioner(pattern, 16, seed=7)
    slow = make_partitioner(pattern, 16, seed=7)
    total = fast.exact_counts(1_000) + fast.exact_counts(2_000)
    assert total.tolist() == _loop_counts(slow, 3_000)


def test_refill_boundaries_rand():
    """Pair counts straddling the internal chunk sizes."""
    for n_pairs in (4095, 4096, 4097, 8192, 20_000):
        fast = make_partitioner("rand", 9, seed=3)  # 9 -> rejection path
        slow = make_partitioner("rand", 9, seed=3)
        assert fast.exact_counts(n_pairs).tolist() == \
            _loop_counts(slow, n_pairs)


def test_avg_continues_round_robin_pointer():
    fast = make_partitioner("avg", 8)
    slow = make_partitioner("avg", 8)
    for chunk in (3, 13, 70):
        assert fast.exact_counts(chunk).tolist() == _loop_counts(slow, chunk)
    assert fast._next == slow._next


@pytest.mark.parametrize("shuffle_gb", (4, 8))
@pytest.mark.parametrize("figure", sorted(FIGURE_SHAPES))
@pytest.mark.parametrize("pattern", SKEW_PATTERNS)
def test_figure_scale_rows_match_loop(pattern, figure, shuffle_gb):
    """One whole map row of Fig. 2(c) or 3(c), spanning many windows."""
    maps, reduces = FIGURE_SHAPES[figure]
    config = BenchmarkConfig.from_shuffle_size(
        shuffle_gb * 1e9, pattern=pattern, num_maps=maps,
        num_reduces=reduces)
    n_pairs = config.pairs_for_map(0)
    assert n_pairs > partitioners._WINDOW  # a pair takes >= 2 words
    fast = make_partitioner(pattern, reduces, seed=config.seed)
    slow = make_partitioner(pattern, reduces, seed=config.seed)
    assert fast.exact_counts(n_pairs).tolist() == _loop_counts(slow, n_pairs)
    assert _state(fast) == _state(slow)


@given(
    pattern=st.sampled_from(SKEW_PATTERNS),
    window=st.integers(2, 64),
    num_reduces=st.integers(1, 24),
    n_pairs=st.integers(0, 300),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_pairs_straddling_window_edges_match_loop(
        pattern, window, num_reduces, n_pairs, seed):
    """2-64 word windows, so most pairs carry across a window edge."""
    fast = make_partitioner(pattern, num_reduces, seed=seed)
    slow = make_partitioner(pattern, num_reduces, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitioners, "_WINDOW", window)
        got = fast.exact_counts(n_pairs)
    assert got.tolist() == _loop_counts(slow, n_pairs)
    assert _state(fast) == _state(slow)


def _untemper(word):
    """The MT19937 state word that the generator outputs as ``word``."""
    def undo_right(y, shift):
        x = y
        for _ in range(32):
            x = y ^ (x >> shift)
        return x

    def undo_left(y, shift, mask):
        x = y
        for _ in range(32):
            x = y ^ ((x << shift) & mask)
        return x

    word = undo_right(word, 18)
    word = undo_left(word, 15, 0xEFC60000)
    word = undo_left(word, 7, 0x9D2C5680)
    return undo_right(word, 11)


def _emitting(*words):
    """A ``random.Random`` whose next raw 32-bit draws are ``words``."""
    version, internal, gauss = random.Random(0).getstate()
    key = tuple(_untemper(w) for w in words) + internal[len(words):-1]
    rng = random.Random(0)
    rng.setstate((version, key + (0,), gauss))
    return rng


@pytest.mark.parametrize("h", range(len(SkewedPartitioner._HEAD)))
def test_head_bounds_equal_random_at_the_edges(h):
    """CPython's own ``random()`` against ``_HEAD[h]`` agrees with the
    first word against ``_HEAD_WORDS[h]``, whatever the second word."""
    threshold = SkewedPartitioner._HEAD[h]
    bound = SkewedPartitioner._HEAD_WORDS[h]
    for first in (bound - 1, bound, bound + 1):
        for second in (0, 2**32 - 1):
            probe = _emitting(first, second)
            assert [probe.getrandbits(32), probe.getrandbits(32)] == \
                [first, second]
            rng = _emitting(first, second)
            assert (rng.random() < threshold) == (first < bound)


def test_head_thresholds_are_dyadic():
    """Every threshold times 2**32 is an integer multiple of 32. The
    first-word test is exact only for multiples of 2**-27, so an edit
    to ``_HEAD`` that breaks this fails here."""
    for threshold, bound in zip(SkewedPartitioner._HEAD,
                                SkewedPartitioner._HEAD_WORDS):
        scaled = threshold * 2**32
        assert scaled.is_integer() and scaled % 32 == 0
        assert bound == scaled
