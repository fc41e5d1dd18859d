"""Custom partitioners implementing the three distribution patterns.

Sect. 4.2 defines the suite's three micro-benchmarks by their
partitioner:

* **MR-AVG** — :class:`AveragePartitioner`: strict round-robin, every
  reducer receives the same number of pairs (±1).
* **MR-RAND** — :class:`RandomPartitioner`: reducer drawn uniformly per
  pair from a seeded PRNG ("With this limited range, the micro-benchmark
  more or less generates the same pattern of reducers" — we fix the seed
  so every run maps identically).
* **MR-SKEW** — :class:`SkewedPartitioner`: 50 % of all pairs to reducer
  0, 25 % of the remainder to reducer 1, 12.5 % of the remaining to
  reducer 2, and the rest uniformly at random. The pattern is fixed
  across runs, guaranteeing a fair comparison on homogeneous systems.

Partitioners are *per-map-task* objects (create one per task, or call
:meth:`Partitioner.reset` between tasks) because MR-AVG's round-robin
and the PRNG-based patterns carry per-task state.
"""

from __future__ import annotations

import abc
import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.datatypes.writable import Writable

#: ``random.Random.random()`` combines a 27-bit and a 26-bit word slice
#: into a 53-bit double with this scale factor.
_RANDOM_SCALE = 1.0 / 9007199254740992.0  # 2**-53

#: Raw words the MR-SKEW replay draws per window (512 KiB as int64):
#: its temporaries stay at a few MB whatever the row length.
_WINDOW = 1 << 16


def seat_generator(mt: np.random.MT19937, state: tuple) -> None:
    """Position ``mt`` at a ``random.Random`` state, ``rng.getstate()``.

    CPython's ``random.Random`` and numpy's ``MT19937`` share the same
    core generator, so transplanting the 624-word state vector through
    the public ``mt.state`` setter makes ``mt.random_raw(n)`` reproduce
    the next ``n`` 32-bit words that generator would draw — the basis
    of the vectorized row kernels. One ``mt`` can be seated again and
    again, so a caller replaying many streams builds it once. The
    setter copies the key word by word, which takes a tuple of ints
    about twenty times faster than an array of numpy scalars.
    """
    internal = state[1]
    mt.state = {
        "bit_generator": "MT19937",
        "state": {"key": internal[:-1], "pos": internal[-1]},
    }


def _advance_rng(rng: random.Random, nwords: int,
                 mt: np.random.MT19937) -> None:
    """Advance ``rng`` by exactly ``nwords`` 32-bit draws (in C speed,
    without materializing them), reseating ``mt`` to do it."""
    version, _internal, gauss = state = rng.getstate()
    seat_generator(mt, state)
    mt.random_raw(nwords, output=False)
    after = mt.state["state"]
    rng.setstate((version,
                  tuple(after["key"].tolist()) + (int(after["pos"]),),
                  gauss))


def _replay_skew(words: np.ndarray, need: int, head_words: Sequence[int],
                 shift: int, n: int) -> Tuple[np.ndarray, int, int]:
    """Replay up to ``need`` MR-SKEW pairs from the start of ``words``.

    A pair is a head pair when its first word is below
    ``head_words[-1]``: two words, and the reducer is the first bound
    that word is under. Otherwise it is a tail pair: two words, then
    ``randrange(n)``'s draws up to the first word ``w`` with
    ``w >> shift < n``, which names the reducer. Returns the
    per-reducer counts of the complete pairs replayed, their number,
    and the offset where the next pair starts; a pair cut off by the
    end of ``words`` is left for the next window.

    Head pairs advance two words at a time, so after a tail pair ends,
    the next tail pair starts at the first tail word of the same
    parity. Each tail pair thus fixes the next: pointer doubling over
    the tail words finds the chain that starts at offset 0, and a
    per-parity coverage mask marks the head pairs between its links.
    """
    size = len(words)
    tail = words >= (head_words[-1] if head_words else 0)
    tails = np.flatnonzero(tail)
    accept = words < n << shift
    # before[x]: accepted words before offset x, for x up to size + 1.
    before = np.zeros(size + 2, dtype=np.int64)
    np.cumsum(accept, out=before[1:size + 1])
    before[-1] = before[-2]
    accepted = np.append(np.flatnonzero(accept), size)
    # Each tail pair's last word, or size where the window cuts it off.
    ends = accepted[before[tails + 2]]
    # same[x]: tail words before offset x with x's parity. lanes: the
    # indices of the even tail words, then of the odd ones, each lane
    # closed by len(tails), which stands for "past the end".
    same = np.zeros(size + 2, dtype=np.int64)
    for parity in (0, 1):
        np.cumsum(tail[parity::2], out=same[parity + 2::2])
    odd = tails & 1
    lanes = np.concatenate((np.flatnonzero(odd == 0), [len(tails)],
                            np.flatnonzero(odd), [len(tails)]))
    odd_lane = len(tails) - np.count_nonzero(odd) + 1

    def next_tail(x: np.ndarray) -> np.ndarray:
        """Index of the first tail word at or after ``x`` of its parity."""
        return lanes[same[x] + (x & 1) * odd_lane]

    # Pointer doubling: ``chain`` holds the first 2**k tail pairs of the
    # chain, ``jump`` maps a tail pair to the one 2**k links later.
    jump = np.append(next_tail(ends + 1), len(tails))
    chain = next_tail(np.zeros(1, dtype=np.int64))
    while chain[-1] < len(tails):
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    chain = chain[chain < len(tails)]
    # Head runs start at 0 and after each tail pair, and stop at the
    # next tail pair or where a head pair would run off the end. From
    # here on ``chain`` holds only the complete tail pairs.
    run_from = np.concatenate(([0], ends[chain] + 1))
    run_to = tails[chain]
    if len(chain) and ends[chain[-1]] == size:
        run_from, resume, chain = run_from[:-1], run_to[-1], chain[:-1]
    else:
        resume = run_from[-1] + (size - run_from[-1]) // 2 * 2
        run_to = np.append(run_to, resume)
    cover = np.zeros(size + 2, dtype=np.int64)
    cover[run_from] += 1
    cover[run_to] -= 1
    for parity in (0, 1):
        np.cumsum(cover[parity::2], out=cover[parity::2])
    heads = np.flatnonzero(cover[:size])
    if len(heads) + len(chain) > need:  # the row ends inside this window
        last = np.sort(np.concatenate((heads, tails[chain])))[need - 1]
        heads = heads[heads <= last]
        chain = chain[tails[chain] <= last]
        resume = ends[chain[-1]] + 1 if tail[last] else last + 2
    counts = np.bincount(words[ends[chain]] >> shift, minlength=n)
    first = words[heads]
    below = 0
    for reducer, bound in enumerate(head_words):
        now = np.count_nonzero(first < bound)
        counts[reducer] += now - below
        below = now
    return counts, len(heads) + len(chain), int(resume)


class Partitioner(abc.ABC):
    """Assigns each intermediate pair to a reduce partition."""

    #: True when :meth:`get_partition` inspects the key/value content
    #: (only the hash baseline does); the pattern partitioners are
    #: index/PRNG driven, which enables :meth:`exact_counts`.
    uses_keys = False

    def __init__(self, num_reduces: int):
        if num_reduces < 1:
            raise ValueError(f"num_reduces must be >= 1, got {num_reduces}")
        self.num_reduces = num_reduces

    @abc.abstractmethod
    def get_partition(self, key: Writable, value: Writable) -> int:
        """Partition index in ``[0, num_reduces)`` for this pair."""

    def reset(self) -> None:
        """Restore per-task state (call between map tasks)."""

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        """Per-reducer counts of the next ``n_pairs`` partition calls.

        Exactly equivalent to tallying ``get_partition`` ``n_pairs``
        times — same counts, same PRNG state afterwards — but without
        materializing keys (valid because ``uses_keys`` is False; the
        subclasses override this with vectorized implementations that
        replay the identical draw sequence, property-tested in
        ``tests/core/test_exact_counts.py``).
        """
        get_partition = self.get_partition
        counts = [0] * self.num_reduces
        for _ in range(n_pairs):
            counts[get_partition(None, None)] += 1
        return np.asarray(counts, dtype=np.int64)

    def expected_distribution(self) -> List[float]:
        """Long-run fraction of pairs per reducer (sums to 1).

        Used by the simulator to build shuffle matrices without looping
        over billions of records; cross-validated against real runs of
        :meth:`get_partition` in the test suite.
        """
        n = self.num_reduces
        return [1.0 / n] * n


class AveragePartitioner(Partitioner):
    """MR-AVG: round-robin, perfectly even (max-min spread <= 1 pair)."""

    def __init__(self, num_reduces: int):
        super().__init__(num_reduces)
        self._next = 0

    def get_partition(self, key: Writable, value: Writable) -> int:
        partition = self._next
        self._next = (self._next + 1) % self.num_reduces
        return partition

    def reset(self) -> None:
        self._next = 0

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        n = self.num_reduces
        base, extra = divmod(n_pairs, n)
        counts = np.full(n, base, dtype=np.int64)
        # The round-robin pointer continues from its current position.
        for offset in range(extra):
            counts[(self._next + offset) % n] += 1
        self._next = (self._next + n_pairs) % n
        return counts


class SeededPartitioner(Partitioner):
    """A pattern drawn from a seeded Mersenne-Twister stream.

    Each subclass has one row kernel, :meth:`row_counts`, that replays
    its draw sequence from a caller-supplied ``np.random.MT19937``
    seated at the start of the stream; :meth:`exact_counts` seats one
    at ``self._rng``'s state, runs the kernel and advances ``self._rng``
    past the words the kernel used. The shuffle matrix calls the kernel
    directly, seating one generator afresh for each map row.
    """

    def __init__(self, num_reduces: int, seed: int = 20140901):
        super().__init__(num_reduces)
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    @abc.abstractmethod
    def row_counts(self, mt: np.random.MT19937,
                   n_pairs: int) -> Tuple[np.ndarray, int]:
        """Per-reducer counts of ``n_pairs`` pairs drawn from ``mt``.

        ``mt`` is at the start of the stream; returns the counts and
        the number of 32-bit words the pairs consumed (``mt`` itself
        may have been drawn past them). Only ``mt`` is read: the
        partitioner's own state is left as it was.
        """

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        return self._replay(self.row_counts, n_pairs)

    def _replay(self, kernel, n_pairs: int) -> np.ndarray:
        """Run ``kernel`` from ``self._rng``'s state, then advance it."""
        mt = np.random.MT19937()
        seat_generator(mt, self._rng.getstate())
        counts, words = kernel(mt, n_pairs)
        _advance_rng(self._rng, words, mt)
        return counts


class RandomPartitioner(SeededPartitioner):
    """MR-RAND: uniform pseudo-random reducer per pair, seeded."""

    def get_partition(self, key: Writable, value: Writable) -> int:
        return self._rng.randrange(self.num_reduces)

    def row_counts(self, mt: np.random.MT19937,
                   n_pairs: int) -> Tuple[np.ndarray, int]:
        """Vectorized replay of ``randrange(n)`` rejection sampling.

        ``randrange(n)`` is ``getrandbits(n.bit_length())`` redrawn
        while the value is >= n; each ``getrandbits(k)`` consumes one
        raw word, shifted down to its top k bits. The accepted values
        of the raw stream, in order, ARE the randrange outputs, so the
        counts are a ``bincount`` of the draws up to the ``n_pairs``-th
        accepted one, cut to the first ``n`` bins.
        """
        n = self.num_reduces
        k = n.bit_length()
        shift = 32 - k
        counts = np.zeros(n, dtype=np.int64)
        consumed = 0
        needed = n_pairs
        while needed > 0:
            # Acceptance rate is n / 2**k; draw with a little headroom.
            # Draws are below 2**k, so the int64 view reads the same.
            est = int(needed * (1 << k) / n * 1.05) + 64
            draws = (mt.random_raw(est) >> shift).view(np.int64)
            accepted = draws < n
            got = int(np.count_nonzero(accepted))
            cut = (int(np.flatnonzero(accepted)[needed - 1]) + 1
                   if got >= needed else est)
            counts += np.bincount(draws[:cut], minlength=1 << k)[:n]
            consumed += cut
            needed -= got
        return counts, consumed


class SkewedPartitioner(SeededPartitioner):
    """MR-SKEW: geometric head (50 %, 12.5 %, ~4.7 %) + uniform tail.

    Thresholds over a uniform draw ``u``:

    * ``u < 0.5``                    -> reducer 0 (50 % of all pairs)
    * ``0.5 <= u < 0.625``           -> reducer 1 (25 % of the remainder)
    * ``0.625 <= u < 0.671875``      -> reducer 2 (12.5 % of the remaining)
    * otherwise                      -> uniform over all reducers

    With fewer than 3 reducers the head truncates accordingly.
    """

    #: Cumulative thresholds for reducers 0..2.
    _HEAD = (0.5, 0.625, 0.671875)
    #: The thresholds as bounds on the first raw word of ``random()``.
    #: Each is a multiple of 2**-27 and ``random()`` takes its top 27
    #: bits from that word, so ``random() < t`` exactly when the first
    #: word is below ``t * 2**32``, whatever the second word.
    _HEAD_WORDS = tuple(int(t * 2**32) for t in _HEAD)

    def get_partition(self, key: Writable, value: Writable) -> int:
        u = self._rng.random()
        head = min(len(self._HEAD), self.num_reduces - 1)
        for reducer in range(head):
            if u < self._HEAD[reducer]:
                return reducer
        return self._rng.randrange(self.num_reduces)

    def row_counts(self, mt: np.random.MT19937,
                   n_pairs: int) -> Tuple[np.ndarray, int]:
        """Vectorized replay of the head-or-tail draw, window by window.

        The raw word stream is drawn up to ``_WINDOW`` words at a time
        and each window is replayed by :func:`_replay_skew`; the words
        of a pair cut off at a window's end carry into the next one.
        """
        n = self.num_reduces
        head_words = self._HEAD_WORDS[:min(len(self._HEAD), n - 1)]
        shift = 32 - n.bit_length()
        counts = np.zeros(n, dtype=np.int64)
        words = np.empty(0, dtype=np.int64)
        consumed = 0
        need = n_pairs
        while need > 0:
            # Pairs average under 4 words. Words are below 2**32, so
            # the int64 view reads the same values.
            fresh = mt.random_raw(min(_WINDOW, 4 * need + 64))
            words = np.concatenate((words, fresh.view(np.int64)))
            got, pairs, resume = _replay_skew(words, need, head_words,
                                              shift, n)
            counts += got
            need -= pairs
            consumed += resume
            words = words[resume:]
        return counts, consumed

    def expected_distribution(self) -> List[float]:
        n = self.num_reduces
        head = min(len(self._HEAD), n - 1)
        probs = [0.0] * n
        prev = 0.0
        for reducer in range(head):
            probs[reducer] = self._HEAD[reducer] - prev
            prev = self._HEAD[reducer]
        tail = 1.0 - prev
        for reducer in range(n):
            probs[reducer] += tail / n
        return probs


class ZipfPartitioner(SeededPartitioner):
    """Extension pattern: Zipf-distributed reducer loads.

    The paper's future work calls for features that let "users gain a
    more concrete understanding of real-world workloads"; real skew
    (word counts, social graphs, URL hits) is Zipfian rather than the
    fixed geometric head of MR-SKEW. Reducer ``r`` receives pairs with
    probability proportional to ``1 / (r + 1) ** exponent``.
    """

    def __init__(self, num_reduces: int, seed: int = 20140901,
                 exponent: float = 1.0):
        super().__init__(num_reduces, seed=seed)
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        self.exponent = exponent
        weights = [1.0 / (r + 1) ** exponent for r in range(num_reduces)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float shortfall

    def get_partition(self, key: Writable, value: Writable) -> int:
        u = self._rng.random()
        # Binary search the CDF.
        lo, hi = 0, self.num_reduces - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if u <= self._cdf[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def row_counts(self, mt: np.random.MT19937,
                   n_pairs: int) -> Tuple[np.ndarray, int]:
        """Vectorized CDF inversion: every pair consumes exactly two
        raw words (one ``random()`` call), so the whole draw sequence
        reconstructs in one shot."""
        n = self.num_reduces
        if n_pairs <= 0:
            return np.zeros(n, dtype=np.int64), 0
        raw = mt.random_raw(2 * n_pairs)
        u = ((raw[0::2] >> np.uint64(5)).astype(np.float64) * 67108864.0
             + (raw[1::2] >> np.uint64(6)).astype(np.float64)) * _RANDOM_SCALE
        # get_partition finds the smallest index with u <= cdf[i]; for
        # the last bucket the loop bottoms out at n-1 without a compare,
        # which searchsorted(side="left") reproduces (cdf[-1] is 1.0).
        draws = np.searchsorted(np.asarray(self._cdf), u, side="left")
        counts = np.bincount(draws, minlength=n).astype(np.int64)
        return counts, 2 * n_pairs

    def expected_distribution(self) -> List[float]:
        weights = [1.0 / (r + 1) ** self.exponent
                   for r in range(self.num_reduces)]
        total = sum(weights)
        return [w / total for w in weights]


class SplitSkewedPartitioner(SkewedPartitioner):
    """Extension: MR-SKEW with key-splitting mitigation.

    The paper asks whether "it is worthwhile to find alternative
    techniques that can mitigate load imbalances". This partitioner
    applies the classic mitigation — split the hot key's partition
    across ``split`` reducers (valid whenever the reduce function is
    associative, as the benchmark's discard-reduce trivially is) —
    to the exact MR-SKEW draw, so the two are directly comparable.
    """

    def __init__(self, num_reduces: int, seed: int = 20140901,
                 split: int = 4):
        super().__init__(num_reduces, seed=seed)
        if split < 1:
            raise ValueError(f"split must be >= 1, got {split}")
        self.split = min(split, num_reduces)
        self._spread = 0

    def get_partition(self, key: Writable, value: Writable) -> int:
        partition = super().get_partition(key, value)
        if partition == 0:
            # Fan the hot partition round-robin over the `split`
            # least-loaded (tail) reducers.
            partition = self.num_reduces - self.split + self._spread
            self._spread = (self._spread + 1) % self.split
        return partition

    def reset(self) -> None:
        super().reset()
        self._spread = 0

    def row_counts(self, mt: np.random.MT19937,
                   n_pairs: int) -> Tuple[np.ndarray, int]:
        counts, words = super().row_counts(mt, n_pairs)
        return self._fan_out(counts), words

    def exact_counts(self, n_pairs: int) -> np.ndarray:
        counts = self._replay(super().row_counts, n_pairs)
        hot = int(counts[0])
        counts = self._fan_out(counts)
        self._spread = (self._spread + hot) % self.split
        return counts

    def _fan_out(self, counts: np.ndarray) -> np.ndarray:
        """MR-SKEW ``counts`` with reducer 0's pairs dealt round-robin
        over the ``split`` tail reducers from the current pointer."""
        hot = int(counts[0])
        counts[0] = 0
        base, extra = divmod(hot, self.split)
        start = self.num_reduces - self.split
        add = np.full(self.split, base, dtype=np.int64)
        for offset in range(extra):
            add[(self._spread + offset) % self.split] += 1
        counts[start:] += add
        return counts

    def expected_distribution(self) -> List[float]:
        base = super().expected_distribution()
        probs = list(base)
        hot = probs[0]
        probs[0] = 0.0
        for r in range(self.num_reduces - self.split, self.num_reduces):
            probs[r] += hot / self.split
        return probs


class HashPartitioner(Partitioner):
    """Hadoop's default partitioner; the suite's sanity baseline.

    With the generator's unique-keys-per-reducer trick, hashing gives a
    near-even distribution but no guarantees; the paper's MR-AVG exists
    precisely to make evenness exact.
    """

    uses_keys = True

    def get_partition(self, key: Writable, value: Writable) -> int:
        # Hadoop: (key.hashCode() & Integer.MAX_VALUE) % numReduceTasks.
        # Writable.stable_hash is seed-independent; the builtin hash()
        # fallback (for plain-Python keys) varies with PYTHONHASHSEED.
        stable = getattr(key, "stable_hash", None)
        h = stable() if stable is not None else hash(key)
        return (h & 0x7FFFFFFF) % self.num_reduces


#: Partitioner classes keyed by benchmark pattern name ("zipf" is this
#: reproduction's real-world-skew extension).
PARTITIONER_BY_PATTERN = {
    "avg": AveragePartitioner,
    "rand": RandomPartitioner,
    "skew": SkewedPartitioner,
    "zipf": ZipfPartitioner,
    "skew-split": SplitSkewedPartitioner,
}


def make_partitioner(pattern: str, num_reduces: int, seed: int = 20140901) -> Partitioner:
    """Instantiate the partitioner for a distribution pattern."""
    try:
        cls = PARTITIONER_BY_PATTERN[pattern]
    except KeyError:
        raise ValueError(
            f"unknown pattern {pattern!r}; known: {sorted(PARTITIONER_BY_PATTERN)}"
        ) from None
    if cls is AveragePartitioner:
        return cls(num_reduces)
    return cls(num_reduces, seed=seed)


def distribution_stats(counts: Sequence[int]) -> dict:
    """Imbalance statistics of a per-reducer record count vector."""
    total = sum(counts)
    if total == 0:
        return {"total": 0, "max": 0, "min": 0, "imbalance": 0.0, "top_share": 0.0}
    mean = total / len(counts)
    return {
        "total": total,
        "max": max(counts),
        "min": min(counts),
        "imbalance": max(counts) / mean,
        "top_share": max(counts) / total,
    }
