"""The content-addressed result store.

:class:`ResultStore` owns the store *policy* — record envelopes,
:class:`~repro.store.records.StoredResult` (de)serialization, warm-start
hit/miss/put accounting — and keeps all persistent state in one
WAL-mode SQLite database (:class:`~repro.store.sqlite.SQLiteBackend`).
A plain directory root holds it as ``<dir>/store.sqlite``; see
:func:`~repro.store.backend.resolve_root` for the full root syntax.

Each record carries the key, the key schema version, a provenance
block (the canonical key components: config, cluster, jobconf, cost
model, fault plan, resolved interconnect), campaign tags added by
:mod:`repro.campaign`, and the :class:`~repro.store.records.StoredResult`
payload, stored as its canonical JSON text, so warm starts are
hex-exact.

Design points:

* **Warm starts are observable.** The store keeps lifetime ``puts``
  (simulations executed and recorded), ``hits`` and ``misses``
  counters; ``repro store stats`` prints them, so "the second run
  executed 0 simulations" is a checkable claim (``puts`` did not move).
* **Counters survive concurrency.** Counter updates are transactional
  upserts, exact under multi-process concurrency (asserted by a
  multiprocess stress test).
* **Corruption is a warning, not a crash.** A record that fails to
  parse or validate is skipped with a :class:`ResultStoreWarning`; the
  point simply re-simulates (and ``repro store verify --gc`` can sweep
  it).
* **Unwritable roots degrade, they don't abort.** The first failed
  write (read-only filesystem, disk full) flips the backend into a
  read-only mode: it warns once, keeps serving reads, and silently
  drops further writes so a long campaign keeps simulating.
* **Schema bumps invalidate.** Records whose ``schema`` differs from
  :data:`~repro.store.keys.SCHEMA_VERSION` never hit; ``gc`` removes
  them.
* **Writes are atomic.** Every write is one SQLite transaction, so
  concurrent readers never see half a record.
* **One path per operation.** ``get``, ``put`` and ``tag`` are the
  one-element case of ``get_batch``, ``put_many`` and ``tag_many``.
* **Integrity is checkable.** :meth:`ResultStore.verify` is an fsck:
  every record must parse, match its stored key, match the schema,
  carry a loadable result payload, and (when provenance is present)
  hash back to its own key.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.store.backend import (
    ResultStoreWarning,
    VerifyReport,
    resolve_root,
)
from repro.store.keys import SCHEMA_VERSION
from repro.store.records import StoredResult
from repro.store.sqlite import SQLiteBackend

#: Environment variable naming the default store root.
STORE_ENV_VAR = "REPRO_STORE"


def default_store_root() -> Optional[str]:
    """The store root named by ``$REPRO_STORE``, if any."""
    root = os.environ.get(STORE_ENV_VAR, "").strip()
    return root or None


def hit_rate(stats: Dict[str, object]) -> Optional[float]:
    """Warm-hit percentage from a stats dict, or ``None``.

    ``None`` (JSON ``null``) when the store has never been looked up —
    a fresh store has no hit rate, and reporting ``0.0`` would read as
    "everything missed". Shared by ``repro store stats --json`` and the
    service's ``/v1/stats`` so the two JSON shapes agree.
    """
    lookups = int(stats.get("hits", 0)) + int(stats.get("misses", 0))
    if not lookups:
        return None
    return 100.0 * int(stats.get("hits", 0)) / lookups


class ResultStore:
    """Content-addressed simulation results in one SQLite database."""

    def __init__(self, root: Union[str, Path]):
        """Open (without creating) the store rooted at ``root``.

        ``root`` accepts a directory, a ``sqlite:PATH`` URL or a
        database path (:func:`~repro.store.backend.resolve_root`).
        """
        location, display = resolve_root(root)
        self.backend = SQLiteBackend(location)
        self.root = Path(display)
        self._stats_cache: Optional[Dict[str, object]] = None

    def describe(self) -> str:
        """One-line human description (backend and location)."""
        return self.backend.describe()

    @property
    def quarantine_location(self) -> str:
        """Human pointer to the quarantine ledger."""
        return self.backend.quarantine_location()

    # -- degradation -------------------------------------------------------

    @property
    def read_only(self) -> bool:
        """Whether the store has degraded to read-only mode."""
        return self.backend.read_only

    # -- record access -----------------------------------------------------

    def _load_result(self, key: str,
                     data: Optional[dict]) -> Optional[StoredResult]:
        """Parse one record document's payload; warn if malformed."""
        if data is None:
            return None
        try:
            return StoredResult.from_dict(data["result"])
        except (KeyError, ValueError) as exc:
            warnings.warn(
                f"skipping malformed store record {key[:16]} in "
                f"{self.describe()}: {exc}",
                ResultStoreWarning, stacklevel=4,
            )
            return None

    def contains(self, key: str) -> bool:
        """Whether a usable record exists (no counter side effects)."""
        return self.backend.read_record(key) is not None

    def fetch_record(self, key: str) -> Optional[dict]:
        """One usable record *document* — no counter side effects.

        The raw envelope dict (``{key, schema, provenance, tags,
        result}``) whose canonical serialization
        (:func:`~repro.store.backend.dump_record_text`) is byte-identical
        to what ``repro store export`` emits; the benchmark service
        serves these bytes directly. Lookups through this path are the
        *caller's* to account (the service keeps request-level counters),
        unlike :meth:`get`, which bumps the store's own hit/miss
        counters.
        """
        return self.backend.read_record(key)

    def get(self, key: str) -> Optional[StoredResult]:
        """Look up a result; counts a hit or a miss."""
        return self._get_batch([key])[0]

    def get_batch(self, keys: Iterable[str]) -> List[Optional[StoredResult]]:
        """Look up many results; counts every hit/miss in one bump.

        Semantically equivalent to ``[self.get(k) for k in keys]`` —
        same results, same warnings, same final counter values — but
        the counters are updated once instead of once per key.
        """
        return self._get_batch(keys)

    def _get_batch(self, keys: Iterable[str]) -> List[Optional[StoredResult]]:
        """The one lookup body behind :meth:`get` and :meth:`get_batch`."""
        results = [self._load_result(key, self.backend.read_record(key))
                   for key in keys]
        hits = sum(1 for result in results if result is not None)
        self.backend.bump_counters(
            {"hits": hits, "misses": len(results) - hits})
        return results

    @staticmethod
    def _envelope(key: str, result: StoredResult,
                  provenance: Optional[dict],
                  tags: Optional[dict]) -> dict:
        """The record document one put persists."""
        return {
            "key": key,
            "schema": SCHEMA_VERSION,
            "provenance": provenance or {},
            "tags": tags or {},
            "result": result.to_dict(),
        }

    def put(
        self,
        key: str,
        result: StoredResult,
        provenance: Optional[dict] = None,
        tags: Optional[dict] = None,
    ) -> Path:
        """Record one simulated point (counts as an executed simulation).

        Returns the database path. In read-only degradation mode the
        write is dropped silently (the path is still returned so callers
        never special-case it).
        """
        return self._put_many([(key, result, provenance, tags)])[0]

    def put_many(
        self,
        entries: Iterable[Tuple[str, StoredResult, Optional[dict],
                                Optional[dict]]],
    ) -> List[Path]:
        """Record many points with one counter bump at the end.

        ``entries`` yields ``(key, result, provenance, tags)`` tuples.
        Writing campaign tags at put time makes a later
        :meth:`tag`/:meth:`tag_many` of the same ``{campaign: meta}``
        a read-only no-op (records serialize with the same canonical
        formatting either way, so the stored bytes are identical). The
        records are written in one transaction and the ``puts`` counter
        is bumped once. A failed write degrades the store exactly like
        :meth:`put`. Returns the database path once per entry.
        """
        return self._put_many(entries)

    def _put_many(
        self,
        entries: Iterable[Tuple[str, StoredResult, Optional[dict],
                                Optional[dict]]],
    ) -> List[Path]:
        """The one write body behind :meth:`put` and :meth:`put_many`."""
        entries = list(entries)
        written = self.backend.write_records(
            (key, self._envelope(key, result, provenance, tags))
            for key, result, provenance, tags in entries)
        self.backend.bump_counters({"puts": written})
        return [self.backend.location] * len(entries)

    def tag(self, key: str, campaign: str,
            meta: Optional[dict] = None) -> bool:
        """Stamp a campaign tag onto an existing record.

        Tags are how the Experiment Book finds a campaign's points from
        store contents alone. Returns False when the record is missing.
        The one-entry case of :meth:`tag_many`: the record
        read-modify-write is transactional so two concurrent campaigns
        never drop each other's tags.
        """
        return self.backend.update_tags([(key, campaign, meta)]) == 1

    def tag_many(
        self,
        entries: Iterable[Tuple[str, str, Optional[dict]]],
    ) -> int:
        """Stamp many campaign tags in one transaction.

        ``entries`` yields ``(key, campaign, meta)`` triples. Returns
        the number of records that carry the tag afterwards (missing
        records are skipped, like :meth:`tag` returning False).
        """
        return self.backend.update_tags(entries)

    # -- quarantine ledger -------------------------------------------------

    def quarantine(self) -> Dict[str, dict]:
        """The quarantine ledger: point key → failure entry."""
        return self.backend.quarantine()

    def quarantine_add(self, key: str, entry: dict) -> None:
        """Record one exhausted point in the ledger."""
        self.backend.quarantine_add(key, entry)

    def quarantine_clear(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop ledger entries (all of them, or just ``keys``).

        Returns the number of entries removed. Used by
        ``repro campaign resume`` so quarantined points get a fresh set
        of attempts.
        """
        return self.backend.quarantine_clear(keys)

    # -- lease ledger ------------------------------------------------------

    def leases(self) -> Dict[str, dict]:
        """Active distributed-execution leases: point key → entry.

        Written by the pool coordinator
        (:mod:`repro.campaign.pool`) when units are dispatched to
        workers; released on completion, quarantine or reassignment.
        Non-empty between runs means a coordinator died hard — the
        entries say which worker held which point.
        """
        return self.backend.leases()

    def lease_update(self, key: str, entry: dict) -> None:
        """Record (or refresh) one point's lease."""
        self.backend.lease_update(key, entry)

    def lease_release(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop leases (all of them, or just ``keys``)."""
        return self.backend.lease_release(keys)

    # -- campaign checkpoints ----------------------------------------------

    def write_checkpoint(self, campaign: str,
                         payload: dict) -> Optional[Path]:
        """Publish one campaign's progress checkpoint atomically.

        Returns the database path, or None when the write was dropped.
        """
        if not self.backend.write_checkpoint(
                campaign, dict(payload, schema=SCHEMA_VERSION)):
            return None
        return self.backend.location

    def read_checkpoint(self, campaign: str) -> Optional[dict]:
        """Load one campaign's checkpoint, if present and parsable."""
        return self.backend.read_checkpoint(campaign)

    # -- inspection --------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All record keys present (any schema), sorted."""
        return self.backend.keys()

    def records(self) -> Iterator[Tuple[str, dict]]:
        """(key, record) pairs for every usable current-schema record."""
        return self.backend.records()

    def campaign_keys(self, campaign: str) -> List[str]:
        """Sorted keys of the records one campaign tagged."""
        return self.backend.campaign_keys(campaign)

    def stats(self, cached: bool = False) -> Dict[str, object]:
        """Counters plus storage footprint.

        By default counters are re-read from the backend so a long-lived
        handle sees bumps made by concurrent processes, not a stale
        cache — but the full pass also aggregates every record (the
        footprint counts), which makes ``stats()`` a disk-heavy call.
        ``cached=True`` returns the last computed snapshot when one
        exists (copied, so callers can annotate it freely), only
        falling back to a fresh read the first time; a hot stats
        endpoint serves the cache and refreshes on its own schedule via
        ``stats()`` / :meth:`refresh_stats`.
        """
        if cached and self._stats_cache is not None:
            return dict(self._stats_cache)
        counters: Dict[str, object] = dict(self.backend.counters())
        counters.update(self.backend.stats_counts())
        counters.update(
            root=str(self.root), schema=SCHEMA_VERSION,
            backend=self.backend.scheme,
            quarantined=len(self.quarantine()),
            leases=len(self.leases()),
        )
        self._stats_cache = dict(counters)
        return counters

    def refresh_stats(self) -> Dict[str, object]:
        """Force a fresh stats read (and repopulate the cache)."""
        return self.stats(cached=False)

    def close(self) -> None:
        """Release backend handles; the store stays usable afterwards."""
        self.backend.close()

    def verify(self, gc: bool = False) -> VerifyReport:
        """Fsck every record; optionally sweep the ones that fail.

        Checks, per record: it parses to an object, the embedded ``key``
        matches the stored key, ``schema`` matches
        :data:`~repro.store.keys.SCHEMA_VERSION`, the result payload
        loads as a :class:`StoredResult`, and — when a provenance block
        is present — the provenance hashes back to the record's own key
        (the content-address actually addresses the content).
        ``gc=True`` sweeps every failing record (exactly the set that
        would otherwise warn as :class:`ResultStoreWarning` or never
        hit).
        """
        return self.backend.verify(gc=gc)

    def gc(self, remove_all: bool = False) -> int:
        """Remove stale (wrong-schema or unreadable) records.

        ``remove_all=True`` empties the store instead. Returns the
        number of records removed.
        """
        return self.backend.gc(remove_all=remove_all)

    def export(self) -> Iterator[str]:
        """Each usable record as one JSON line (``repro store export``)."""
        for _key, record in self.records():
            yield json.dumps(record, sort_keys=True)
