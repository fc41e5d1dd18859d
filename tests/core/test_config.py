"""Tests for BenchmarkConfig."""

import pytest

from repro.core import BenchmarkConfig
from repro.datatypes import BytesWritable, Text


def test_defaults_match_paper_setup():
    """Default: MR-AVG, 1KB pairs, 16 maps / 8 reduces, BytesWritable."""
    cfg = BenchmarkConfig()
    assert cfg.pattern == "avg"
    assert cfg.pair_size == 1024
    assert cfg.num_maps == 16
    assert cfg.num_reduces == 8
    assert cfg.data_type == "BytesWritable"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pattern": "uniform"},
        {"key_size": 0},
        {"value_size": -1},
        {"num_pairs": 0},
        {"num_maps": 0},
        {"num_reduces": 0},
        {"data_type": "IntWritable"},
        {"data_type": "NoSuchWritable"},
    ],
)
def test_validation_rejects(kwargs):
    with pytest.raises((ValueError, KeyError)):
        BenchmarkConfig(**kwargs)


@pytest.mark.parametrize("attr", ["data_type", "key_type", "value_type"])
def test_unknown_writable_raises_value_error(attr):
    """Unregistered Writable names surface as ValueError (not a raw
    KeyError from the registry) so callers can catch config errors
    uniformly."""
    with pytest.raises(ValueError, match="registered Writable"):
        BenchmarkConfig(**{attr: "NoSuchWritable"})


def test_writable_resolution():
    assert BenchmarkConfig().writable is BytesWritable
    assert BenchmarkConfig(data_type="Text").writable is Text


def test_record_size_bytes_writable():
    """512B key + 512B value as BytesWritable:
    payloads 516 each, IFile headers vint(516)=3 each."""
    cfg = BenchmarkConfig(key_size=512, value_size=512)
    assert cfg.record_size == 3 + 3 + 516 + 516


def test_shuffle_bytes():
    cfg = BenchmarkConfig(num_pairs=1000)
    assert cfg.shuffle_bytes == 1000 * cfg.record_size


def test_pairs_for_map_even_split():
    cfg = BenchmarkConfig(num_pairs=160, num_maps=16)
    assert all(cfg.pairs_for_map(i) == 10 for i in range(16))


def test_pairs_for_map_remainder():
    cfg = BenchmarkConfig(num_pairs=10, num_maps=4)
    shares = [cfg.pairs_for_map(i) for i in range(4)]
    assert shares == [3, 3, 2, 2]
    assert sum(shares) == 10


def test_pairs_for_map_out_of_range():
    cfg = BenchmarkConfig()
    with pytest.raises(IndexError):
        cfg.pairs_for_map(16)


def test_from_shuffle_size_hits_target():
    cfg = BenchmarkConfig.from_shuffle_size(16e9, key_size=512, value_size=512)
    assert cfg.shuffle_bytes == pytest.approx(16e9, rel=0.001)


def test_from_shuffle_size_minimum_one_pair():
    cfg = BenchmarkConfig.from_shuffle_size(1.0)
    assert cfg.num_pairs == 1


@pytest.mark.parametrize("shuffle_bytes", [
    float("inf"), float("-inf"), float("nan"), 1e300 * 1e9,
])
def test_from_shuffle_size_rejects_non_finite_sizes(shuffle_bytes):
    """A size no pair count can reach is a ValueError naming it, which
    every caller reports as bad input (not an OverflowError)."""
    with pytest.raises(ValueError, match="finite.*got (inf|-inf|nan)"):
        BenchmarkConfig.from_shuffle_size(shuffle_bytes)


@pytest.mark.parametrize("shuffle_bytes", [0.0, -0.0, -1e9])
def test_from_shuffle_size_rejects_non_positive_sizes(shuffle_bytes):
    """A size of no bytes is bad input, not a one-pair job."""
    with pytest.raises(ValueError, match="> 0"):
        BenchmarkConfig.from_shuffle_size(shuffle_bytes)


@pytest.mark.parametrize("seed", [float("nan"), float("inf"),
                                  float("-inf"), -3, -3.0, 7.5, "7", None])
def test_seed_rejects_what_is_not_a_non_negative_integer(seed):
    """A NaN seed draws differently in every process, and numpy refuses
    negative and fractional ones mid-simulation: each is a ValueError
    naming the value, at construction."""
    with pytest.raises(ValueError, match=f"seed must be a non-negative "
                                         f"integer, got {seed!r}"):
        BenchmarkConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 7, 7.0, 0.0, 2**64])
def test_seed_accepts_non_negative_integers_in_either_spelling(seed):
    assert BenchmarkConfig(seed=seed).seed == seed


def test_describe_contains_all_parameters():
    desc = BenchmarkConfig().describe()
    for key in ("pattern", "key_size", "value_size", "num_pairs",
                "num_maps", "num_reduces", "data_type", "network",
                "record_size", "shuffle_bytes"):
        assert key in desc


def test_config_is_hashable_and_frozen():
    cfg = BenchmarkConfig()
    with pytest.raises(AttributeError):
        cfg.num_maps = 4  # type: ignore[misc]
    assert hash(cfg) == hash(BenchmarkConfig())
