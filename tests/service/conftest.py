"""Fixtures for the service test suite.

Service tests run the full stack — query parsing, single-flight,
scheduler, campaign executor, store — against both store root
spellings via ``root_kind`` (re-exported from the store suite's
conftest). The
point memo cache is process-global state, so every test starts and
ends with it cleared: a warm *memo* would otherwise mask exactly the
store behavior these tests pin down.
"""

import pytest

from repro.core.suite import clear_result_cache

from tests.store.conftest import root_kind, store_root  # noqa: F401

#: One tiny, fast point (~2 ms simulated) in query coordinates —
#: the same point the chaos tests use, one size.
TINY_POINT = {
    "benchmark": "MR-AVG",
    "shuffle_gb": 0.02,
    "network": "1GigE",
    "slaves": 2,
    "params": {"num_maps": 4, "num_reduces": 2,
               "key_size": 256, "value_size": 256},
}


def tiny_query(**overrides):
    """A fresh tiny-point query body, with overrides."""
    body = {key: (dict(value) if isinstance(value, dict) else value)
            for key, value in TINY_POINT.items()}
    body.update(overrides)
    return body


@pytest.fixture(autouse=True)
def fresh_memo():
    """Clear the global point memo around every test."""
    clear_result_cache()
    yield
    clear_result_cache()
