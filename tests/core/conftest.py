"""Core-test fixtures.

Re-exports the store root parameterization so the CLI store tests run
against both store root spellings.
"""

from tests.store.conftest import root_kind  # noqa: F401
