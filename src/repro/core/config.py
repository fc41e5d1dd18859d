"""Benchmark configuration — the paper's user-specified parameters.

Section 3 lists the dimensions the suite exposes: intermediate data
distribution, size and number of key/value pairs, number of map and
reduce tasks, data type, and network configuration.
:class:`BenchmarkConfig` is the single object carrying all of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Dict, Optional, Type

from repro.datatypes import BytesWritable, Text
from repro.datatypes.serialization import record_wire_size
from repro.datatypes.writable import Writable, writable_class

#: Distribution pattern identifiers (Sect. 4.2) plus the "zipf"
#: real-world-skew extension this reproduction adds.
PATTERN_AVG = "avg"
PATTERN_RAND = "rand"
PATTERN_SKEW = "skew"
PATTERN_ZIPF = "zipf"
PATTERN_SKEW_SPLIT = "skew-split"
PATTERNS = (PATTERN_AVG, PATTERN_RAND, PATTERN_SKEW, PATTERN_ZIPF,
            PATTERN_SKEW_SPLIT)

#: Data types the paper evaluates (Sect. 5.2); the suite supports any
#: registered Writable with payload semantics.
SUPPORTED_DATA_TYPES = ("BytesWritable", "Text")

#: Trial ``t`` of a point with base seed ``s`` runs with seed
#: ``s + t * TRIAL_SEED_STRIDE``, whether a campaign, the service or
#: ``MicroBenchmarkSuite.run_trials`` runs it.
TRIAL_SEED_STRIDE = 9973


@dataclass(frozen=True)
class BenchmarkConfig:
    """Complete parameterization of one micro-benchmark run.

    Attributes mirror the CLI options of the paper's suite:

    ``pattern``
        Intermediate data distribution, one of :data:`PATTERNS`:
        ``avg`` (MR-AVG), ``rand`` (MR-RAND), ``skew`` (MR-SKEW), plus
        the ``zipf`` and ``skew-split`` extensions.
    ``key_size`` / ``value_size``
        Payload bytes per key and per value. The paper's "key/value
        pair size of 1 KB" splits evenly: 512 B keys + 512 B values.
    ``num_pairs``
        Total intermediate key/value pairs generated across all maps.
    ``num_maps`` / ``num_reduces``
        Task counts (the paper's most basic tunables).
    ``data_type``
        Writable class name for both key and value.
    ``network``
        Interconnect name/alias resolved by
        :func:`repro.net.get_interconnect`.
    ``seed``
        Seed for the generator and the random/skew partitioners; fixed
        by default so every run sees the same mapping, as the paper
        requires for fair cross-network comparison. A non-negative
        integer, which may be spelled as a float (``7.0`` draws what
        ``7`` draws, under its own store key).
    """

    pattern: str = PATTERN_AVG
    key_size: int = 512
    value_size: int = 512
    num_pairs: int = 1_000_000
    num_maps: int = 16
    num_reduces: int = 8
    data_type: str = "BytesWritable"
    network: str = "1GigE"
    seed: int = 20140901
    #: Mixed-type extension: override the key or value Writable class
    #: independently (``None`` falls back to ``data_type``). The paper
    #: lists "investigate other data types" as future work.
    key_type: Optional[str] = None
    value_type: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.key_size < 1 or self.value_size < 0:
            raise ValueError("key_size must be >= 1 and value_size >= 0")
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.num_maps < 1 or self.num_reduces < 1:
            raise ValueError("num_maps and num_reduces must be >= 1")
        if not _valid_seed(self.seed):
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        for attr in ("data_type", "key_type", "value_type"):
            name = getattr(self, attr)
            if name is None:
                continue
            try:
                writable_class(name)
            except KeyError:
                raise ValueError(
                    f"{attr} must name a registered Writable type, "
                    f"got {name!r}"
                ) from None
            if name not in SUPPORTED_DATA_TYPES:
                raise ValueError(
                    f"{attr} must be one of {SUPPORTED_DATA_TYPES}, "
                    f"got {name!r}"
                )

    # -- derived quantities ----------------------------------------------

    @property
    def writable(self) -> Type[Writable]:
        """The default key/value Writable class (``data_type``)."""
        return writable_class(self.data_type)

    @property
    def key_writable(self) -> Type[Writable]:
        """The key's Writable class (``key_type`` or ``data_type``)."""
        return writable_class(self.key_type or self.data_type)

    @property
    def value_writable(self) -> Type[Writable]:
        """The value's Writable class (``value_type`` or ``data_type``)."""
        return writable_class(self.value_type or self.data_type)

    @property
    def pair_size(self) -> int:
        """User-visible payload bytes per pair (key + value)."""
        return self.key_size + self.value_size

    @property
    def record_size(self) -> int:
        """Exact on-wire bytes per intermediate record (IFile framing)."""
        return record_wire_size(
            self.key_writable, self.key_size, self.value_size,
            value_datatype=self.value_writable,
        )

    @property
    def shuffle_bytes(self) -> int:
        """Total intermediate (shuffle) bytes for the whole job."""
        return self.num_pairs * self.record_size

    def pairs_for_map(self, map_id: int) -> int:
        """Pairs generated by one map; remainders go to the first maps."""
        if not 0 <= map_id < self.num_maps:
            raise IndexError(f"map_id {map_id} out of range")
        base, extra = divmod(self.num_pairs, self.num_maps)
        return base + (1 if map_id < extra else 0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_shuffle_size(
        cls, shuffle_bytes: float, **kwargs: object
    ) -> "BenchmarkConfig":
        """Build a config whose total shuffle volume is ~``shuffle_bytes``.

        This is how the paper's sweeps are expressed ("we vary the
        number of intermediate key/value pairs generated" for a target
        shuffle data size). The pair count is rounded to keep per-map
        counts integral. Raises :class:`ValueError` for an infinite, NaN,
        zero or negative size.
        """
        if not math.isfinite(shuffle_bytes):
            raise ValueError(
                f"shuffle size must be a finite number of bytes, got "
                f"{shuffle_bytes!r}")
        if shuffle_bytes <= 0:
            raise ValueError(
                f"shuffle size must be > 0 bytes, got {shuffle_bytes:g}")
        probe = cls(num_pairs=1, **kwargs)  # type: ignore[arg-type]
        pairs = max(1, round(shuffle_bytes / probe.record_size))
        return replace(probe, num_pairs=pairs)

    def canonical_dict(self) -> Dict[str, object]:
        """Canonical (JSON-ready) form for stable, cross-process hashing.

        Unlike :meth:`describe` this is a *key*, not a report: fields
        appear verbatim except ``network``, which is resolved to the
        interconnect's canonical name so every alias of the same fabric
        hashes identically. Used by :mod:`repro.store` to address
        on-disk results.
        """
        from repro.store.keys import config_components

        return config_components(self)

    def stable_hash(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_dict`.

        Stable across processes, platforms and ``PYTHONHASHSEED``
        values (unlike ``hash(config)``). This digest covers only the
        benchmark config; the full store key also mixes in cluster,
        jobconf, cost model, fault plan and the store schema version —
        see :func:`repro.store.keys.point_key`.
        """
        from repro.store.keys import stable_digest

        return stable_digest(self.canonical_dict())

    def describe(self) -> Dict[str, object]:
        """Flat dict of all parameters plus derived sizes (for reports)."""
        return {
            "pattern": self.pattern,
            "key_size": self.key_size,
            "value_size": self.value_size,
            "num_pairs": self.num_pairs,
            "num_maps": self.num_maps,
            "num_reduces": self.num_reduces,
            "data_type": self.data_type,
            "key_type": self.key_type or self.data_type,
            "value_type": self.value_type or self.data_type,
            "network": self.network,
            "seed": self.seed,
            "record_size": self.record_size,
            "shuffle_bytes": self.shuffle_bytes,
        }


def _valid_seed(seed: object) -> bool:
    """A seed every PRNG the simulator seeds accepts, and that draws the
    same in every process: NaN seeds ``random.Random`` by the object's
    identity, and numpy refuses negative and fractional seeds."""
    if isinstance(seed, float):
        return math.isfinite(seed) and seed.is_integer() and seed >= 0
    try:
        return operator.index(seed) >= 0
    except TypeError:
        return False


#: Per-map record count above which a shuffle matrix row is sampled
#: instead of counted exactly (see :mod:`repro.core.matrix`).
EXACT_LIMIT = 250_000


def matrix_cache_key(
    config: BenchmarkConfig, exact_limit: int = EXACT_LIMIT
) -> tuple:
    """The fields of ``config`` that determine its shuffle matrix.

    Two configs with equal keys share one (bit-identical) matrix. The
    matrix is network/cluster independent, and for MR-AVG it is also
    seed independent (round-robin has a closed form that never touches
    a PRNG), so the AVG key normalizes the seed away — trials of an
    MR-AVG sweep all share a single matrix. It lives here, not beside
    the matrix, so campaign planning keys points without numpy.
    """
    seed = None if config.pattern == PATTERN_AVG else config.seed
    return (config.pattern, config.num_maps, config.num_reduces,
            config.num_pairs, seed, exact_limit)


# Re-export the concrete types for convenience in configs/tests.
__all__ = [
    "BenchmarkConfig",
    "BytesWritable",
    "PATTERNS",
    "PATTERN_AVG",
    "PATTERN_RAND",
    "PATTERN_SKEW",
    "PATTERN_SKEW_SPLIT",
    "PATTERN_ZIPF",
    "SUPPORTED_DATA_TYPES",
    "Text",
]
