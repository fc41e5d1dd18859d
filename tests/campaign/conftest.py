"""Campaign-test fixtures.

Re-exports the store root parameterization so the chaos resume tests
run against both store root spellings.
"""

from tests.store.conftest import root_kind  # noqa: F401
