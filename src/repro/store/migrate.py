"""Store-to-store copies and imports (``repro store migrate``).

Copies a result corpus key for key, byte for byte, into a SQLite store:
from another SQLite store, or from a directory store written by an
older release (``objects/<aa>/<key>.json`` files, read by
:class:`DirectoryStoreReader`). Those record files hold the canonical
record text (:func:`~repro.store.backend.dump_record_text`) the
store's database holds, so an import is byte-identical and warm starts
through it stay hex-exact; nothing is re-simulated.

What migrates:

* **records** — every *parsable* record, any schema version (stale
  records are preserved verbatim so ``gc`` policy stays the owner's
  call), via raw record writes that bypass the ``puts`` accounting;
* **counters** — added onto the destination's totals, so migrating
  into an empty store reproduces the source totals exactly;
* **quarantine ledger**, **lease ledger** and **campaign
  checkpoints** — copied entry for entry.

``repro store migrate DIR DIR`` imports an old directory store in
place: the database lands beside the old files as ``DIR/store.sqlite``,
and from then on ``DIR`` opens as that database.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.store.backend import (
    SQLITE_FILENAME,
    ResultStoreWarning,
    legacy_directory,
)
from repro.store.store import ResultStore, StoreLike, as_store


@dataclass
class MigrationReport:
    """What one :func:`migrate_store` run copied."""

    source: str
    destination: str
    records: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    quarantined: int = 0
    leases: int = 0
    checkpoints: int = 0

    def render(self) -> str:
        """Multi-line human form (used by ``repro store migrate``)."""
        totals = ", ".join(f"{name}={value}" for name, value
                           in sorted(self.counters.items()))
        return (
            f"migrated {self.source} -> {self.destination}\n"
            f"  records:     {self.records}\n"
            f"  counters:    {totals or '(none)'}\n"
            f"  quarantined: {self.quarantined}\n"
            f"  leases:      {self.leases}\n"
            f"  checkpoints: {self.checkpoints}"
        )


def _read_json(path: Path) -> Optional[object]:
    """One parsed JSON file; None when absent, None + warning when
    unreadable."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        warnings.warn(f"skipping unreadable {path}: {exc}",
                      ResultStoreWarning, stacklevel=3)
        return None


class DirectoryStoreReader:
    """Read-only view of a directory store from an older release.

    Layout (all JSON; ``*.lock`` files are ignored)::

        <root>/store.json                 schema stamp (+ counters)
        <root>/counters/shard-<nn>.json   counter shards
        <root>/quarantine.json            {"points": {key: entry}}
        <root>/leases.json                {"points": {key: entry}}
        <root>/checkpoints/<name>.json    one checkpoint per campaign
        <root>/objects/<k[:2]>/<k>.json   one record per point key

    An unreadable file warns and reads as absent, as it did in the
    release that wrote it.
    """

    def __init__(self, root: Union[str, Path]):
        """View the directory store at ``root`` (nothing is read yet)."""
        self.root = Path(root)

    def describe(self) -> str:
        """One-line human description of the source."""
        return f"directory store at {self.root}"

    def dump(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every parsable record, any schema."""
        for path in sorted(self.root.glob("objects/*/*.json")):
            data = _read_json(path)
            if isinstance(data, dict):
                yield path.stem, data

    def counters(self) -> Dict[str, int]:
        """Totals over ``store.json`` and every counter shard."""
        totals: Dict[str, int] = {}
        paths = [self.root / "store.json",
                 *sorted(self.root.glob("counters/shard-*.json"))]
        for path in paths:
            data = _read_json(path)
            try:
                counts = {name: int(value) for name, value
                          in (data or {}).items() if name != "schema"}
            except (AttributeError, TypeError, ValueError) as exc:
                warnings.warn(f"skipping unreadable {path}: {exc}",
                              ResultStoreWarning, stacklevel=2)
                continue
            for name, value in counts.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def _ledger(self, filename: str) -> Dict[str, dict]:
        """One ``{"points": {...}}`` ledger file's entries."""
        data = _read_json(self.root / filename)
        entries = data.get("points") if isinstance(data, dict) else None
        return entries if isinstance(entries, dict) else {}

    def quarantine(self) -> Dict[str, dict]:
        """The quarantine ledger: point key → failure entry."""
        return self._ledger("quarantine.json")

    def leases(self) -> Dict[str, dict]:
        """The lease ledger: point key → lease entry."""
        return self._ledger("leases.json")

    def checkpoints(self) -> Dict[str, dict]:
        """Every parsable checkpoint, by campaign name."""
        out: Dict[str, dict] = {}
        for path in sorted(self.root.glob("checkpoints/*.json")):
            data = _read_json(path)
            if isinstance(data, dict):
                out[path.stem] = data
        return out


def _same_database(a: Path, b: Path) -> bool:
    """Whether two database paths name one file, however spelled."""
    if a.exists() and b.exists():
        return os.path.samefile(a, b)
    return a.resolve() == b.resolve()


def migrate_store(source: StoreLike,
                  destination: StoreLike) -> MigrationReport:
    """Copy one store into another, losslessly.

    ``source`` accepts any store root or an opened :class:`ResultStore`;
    an old directory store (``file:DIR``, or a directory holding
    ``objects/`` and no ``store.sqlite``) is imported read-only.
    ``destination`` accepts any store root or an opened store; naming
    the old directory itself puts the database at
    ``DIR/store.sqlite``. Existing destination records with the same
    key are overwritten with the source's bytes; destination counters
    *accumulate* the source totals. Raises ``ValueError`` when source
    and destination are the same database file, however spelled
    (relative or absolute paths, symlinks).
    """
    legacy = (None if isinstance(source, ResultStore)
              else legacy_directory(source))
    src = (DirectoryStoreReader(legacy) if legacy is not None
           else as_store(source))
    if not isinstance(destination, ResultStore):
        into = legacy_directory(destination)
        if into is not None and not os.fspath(destination).startswith(
                "file:"):
            destination = f"sqlite:{into / SQLITE_FILENAME}"
    dst = as_store(destination)
    if (isinstance(src, ResultStore)
            and _same_database(src.location, dst.location)):
        raise ValueError(
            f"source and destination are the same store ({src.describe()})")
    report = MigrationReport(source=src.describe(),
                             destination=dst.describe())
    report.records = dst.write_records(src.dump())
    counters = {name: value for name, value in src.counters().items()
                if value}
    dst.bump_counters(counters)
    report.counters = counters
    for key, entry in src.quarantine().items():
        dst.quarantine_add(key, entry)
        report.quarantined += 1
    for key, entry in src.leases().items():
        dst.lease_update(key, entry)
        report.leases += 1
    for campaign, payload in src.checkpoints().items():
        if dst._put_checkpoint(campaign, payload) is not None:
            report.checkpoints += 1
    return report
