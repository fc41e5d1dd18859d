"""Persistent, content-addressed storage for simulation results.

The in-process memo cache in :mod:`repro.core.suite` dies with the
interpreter; this package gives the suite a durable backing layer so
repeated campaigns warm-start across processes:

* :mod:`repro.store.keys` — stable SHA-256 keys over the canonical
  JSON of (config, cluster, jobconf, cost model, fault plan, schema
  version); independent of ``PYTHONHASHSEED`` and process identity.
* :mod:`repro.store.records` — :class:`StoredResult`, the durable
  JSON-round-trippable subset of a ``SimJobResult``.
* :mod:`repro.store.backend` — canonical record text, root resolution
  (``sqlite:PATH``, database paths, directories) and the verify types.
* :mod:`repro.store.store` — :class:`ResultStore`, the one store class:
  a WAL-mode SQLite database with transactional hit/miss/put counters,
  indexed tags, corruption tolerance, schema invalidation and
  ``gc``/``export`` maintenance.
* :mod:`repro.store.migrate` — byte-identical store-to-store copies,
  and imports of directory stores written by older releases
  (``repro store migrate``).

Attach a store to a suite (``MicroBenchmarkSuite(store=...)``), the
CLI (``--store ROOT``) or a campaign run, and every simulated point is
recorded once and replayed forever — bit-identical, with provenance.
See ``docs/STORE.md``, ``docs/MODEL.md`` ("The caching contract") and
``docs/API.md``.
"""

from repro.store.backend import (
    BACKEND_ENV_VAR,
    FSYNC_ENV_VAR,
    RecordDocument,
    ResultStoreWarning,
    VerifyProblem,
    VerifyReport,
    dump_record_text,
    resolve_root,
)
from repro.store.keys import (
    SCHEMA_VERSION,
    canonical,
    canonical_json,
    point_components,
    point_key,
    stable_digest,
)
from repro.store.migrate import MigrationReport, migrate_store
from repro.store.records import StoredResult
from repro.store.store import (
    STORE_ENV_VAR,
    ResultStore,
    StoreLike,
    as_store,
    default_store_root,
    hit_rate,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "FSYNC_ENV_VAR",
    "SCHEMA_VERSION",
    "STORE_ENV_VAR",
    "MigrationReport",
    "RecordDocument",
    "ResultStore",
    "ResultStoreWarning",
    "StoreLike",
    "StoredResult",
    "VerifyProblem",
    "VerifyReport",
    "as_store",
    "dump_record_text",
    "migrate_store",
    "resolve_root",
    "canonical",
    "canonical_json",
    "default_store_root",
    "hit_rate",
    "point_components",
    "point_key",
    "stable_digest",
]
