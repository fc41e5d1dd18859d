"""The pluggable storage contract behind :class:`~repro.store.ResultStore`.

:class:`ResultStore` is a thin facade: all hit/miss accounting, record
envelopes and provenance live there, while everything that actually
touches persistent state goes through a :class:`StoreBackend`. Two
implementations ship:

* :class:`~repro.store.fs.FilesystemBackend` — the original
  human-inspectable ``objects/<aa>/<key>.json`` directory layout,
  upgraded with **sharded counter files** so concurrent writers stop
  contending on a single lock;
* :class:`~repro.store.sqlite.SQLiteBackend` — one SQLite database in
  WAL mode with real transactions and indexed tag/quarantine tables,
  built for read-heavy service use and fast ``ls``/``verify``/
  ``stats`` over millions of records.

Both backends store the *identical* record document (the same JSON
text, byte for byte — see :func:`dump_record_text`), keyed by the same
content address from :mod:`repro.store.keys`, so records migrate
between backends losslessly (``repro store migrate``) and the
bit-identity contract (hex-exact warm starts) holds regardless of
backing.

Root syntax (everywhere a store root is accepted — ``--store``,
``$REPRO_STORE``, ``ResultStore(...)``):

* ``sqlite:PATH`` — SQLite backend at ``PATH`` (URL-style, explicit);
* ``file:PATH`` — filesystem backend at directory ``PATH`` (explicit);
* a path ending in ``.db`` / ``.sqlite`` / ``.sqlite3``, or naming an
  existing regular file — SQLite backend;
* any other path — a directory store. The backend is the filesystem
  one unless ``$REPRO_STORE_BACKEND=sqlite`` is set (the database then
  lives at ``<root>/store.sqlite``) or the directory already holds a
  ``store.sqlite`` from a previous sqlite-backed run.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

#: Environment variable selecting the backend for plain directory roots
#: (``filesystem`` — the default — or ``sqlite``).
BACKEND_ENV_VAR = "REPRO_STORE_BACKEND"

#: Environment variable gating fsync durability (default on; set to
#: ``0`` to trade crash-durability for write throughput, e.g. in
#: benchmarks that measure lock contention rather than disk flushes).
FSYNC_ENV_VAR = "REPRO_STORE_FSYNC"

#: Database filename used when a *directory* root is opened with the
#: sqlite backend (``$REPRO_STORE_BACKEND=sqlite``).
SQLITE_FILENAME = "store.sqlite"

#: Known backend names (``ResultStore(root, backend=...)``).
BACKEND_NAMES = ("filesystem", "sqlite")


class ResultStoreWarning(UserWarning):
    """Raised (as a warning) when a store record cannot be used."""


def fsync_enabled() -> bool:
    """Whether record writes flush to stable storage (default: yes)."""
    raw = os.environ.get(FSYNC_ENV_VAR, "1").strip().lower()
    return raw not in ("0", "false", "no", "off")


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (POSIX); best-effort elsewhere."""
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return
    try:
        fd = os.open(str(path), os.O_RDONLY | os.O_DIRECTORY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync not supported on dirs
        pass
    finally:
        os.close(fd)


def atomic_write_json(path: Path, payload: dict,
                      durable: bool = True) -> None:
    """Publish ``payload`` at ``path`` via temp file + ``os.replace``.

    With ``durable=True`` (the default) the temp file is fsynced
    *before* the rename and the directory entry after it, so a crash —
    even a power cut — can never leave a zero-length or torn file where
    a record used to be. ``durable=False`` skips the flushes for
    throwaway statistics (counter shards) whose loss is harmless.
    ``$REPRO_STORE_FSYNC=0`` disables flushing globally.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    durable = durable and fsync_enabled()
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(dump_record_text(payload))
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if durable:
            _fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_record_text(record: dict) -> str:
    """The canonical serialized form of one record document.

    Exactly the bytes :func:`atomic_write_json` puts in a record file;
    the SQLite backend stores the same text, which is what makes
    ``repro store migrate`` byte-identical in both directions.

    The text is ``json.dumps(record, indent=1, sort_keys=True)``, built
    faster (docs/STORE.md §4a has the argument): a *flat* container (only
    scalar values) is one C-encoder call whose item separator carries
    the line break and indent of its depth, and a non-flat sub-document
    below depth 1 (a provenance ``cluster``, a result's ``phase_rows``)
    comes from :data:`_SUBDOCS`, keyed by its compact canonical text.
    The indented text is a function of the compact text, and JSON text
    never holds a raw newline, so a hit moved to depth ``d`` by putting
    ``d`` spaces after every ``"\\n"`` is exact. Anything else — non-str
    keys, non-JSON types, a missing C encoder — takes the stdlib call.
    """
    if c_make_encoder is None:  # pragma: no cover - pure-Python json
        return json.dumps(record, indent=1, sort_keys=True)
    try:
        return _render(record, 0)
    except (_Fallback, TypeError, ValueError, RecursionError):
        return json.dumps(record, indent=1, sort_keys=True)


def compact_text(tree: object) -> str:
    """``json.dumps(tree, sort_keys=True, separators=(",", ":"))`` of an
    acyclic tree.

    One call of a prebuilt C encoder (no per-call encoder set-up); the
    stdlib call where the C encoder is missing.
    """
    if _COMPACT is None:  # pragma: no cover - pure-Python json
        return json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return "".join(_COMPACT(tree, 0))


class _Fallback(Exception):
    """The fast record-text path met something only the stdlib handles."""


def _not_json(obj: object) -> object:
    """C-encoder ``default`` hook, raising like ``JSONEncoder.default``."""
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _c_encoder(key_separator: str, item_separator: str):
    """A sorted-keys, ASCII, NaN-allowing C encoder (no cycle check)."""
    if c_make_encoder is None:  # pragma: no cover - pure-Python json
        return None
    return c_make_encoder(None, _not_json, encode_basestring_ascii, None,
                          key_separator, item_separator, True, False, True)


_COMPACT = _c_encoder(":", ",")

#: Exact types the fast path writes as JSON scalars (and as keys).
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_STR_TYPE = frozenset((str,))

#: Indent level -> C encoder whose item separator starts that level's
#: lines, so a flat container is one call (see :func:`_render`).
_FLAT_ENCODERS: Dict[int, object] = {}

#: Most bytes (compact keys plus indented texts) :data:`_SUBDOCS` holds
#: before it starts over.
SUBDOC_MEMO_BYTES = 1 << 20

#: Compact canonical text of a non-flat sub-document -> its indented
#: text at depth 0. Readers make one ``get`` (atomic under the GIL), so
#: service threads share it without a lock; only the rare insert takes
#: :data:`_SUBDOC_LOCK`, to keep :data:`_subdoc_bytes` (the bytes held)
#: exact.
_SUBDOCS: Dict[str, str] = {}
_subdoc_bytes = 0
_SUBDOC_LOCK = threading.Lock()


def _render(obj: object, depth: int) -> str:
    """The ``indent=1, sort_keys=True`` text of a container whose
    opening bracket sits at indent ``depth``."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        values = obj.values()
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        values = obj
    else:
        raise _Fallback(kind.__name__)
    if _SCALAR_TYPES.issuperset(map(type, values)):
        if kind is dict and not _STR_TYPE.issuperset(map(type, obj)):
            raise _Fallback("non-str key")
        inner = depth + 1
        encoder = _FLAT_ENCODERS.get(inner)
        if encoder is None:
            encoder = _c_encoder(": ", ",\n" + " " * inner)
            _FLAT_ENCODERS[inner] = encoder
        text = "".join(encoder(obj, 0))
        return (text[0] + "\n" + " " * inner + text[1:-1] + "\n"
                + " " * depth + text[-1])
    if depth < 2:
        return _members(obj, depth)
    # A non-flat sub-document below depth 1: memoized at depth 0.
    key = compact_text(obj)
    text = _SUBDOCS.get(key)
    if text is None:
        text = _members(obj, 0)
        _remember(key, text)
    return text.replace("\n", "\n" + " " * depth)


def _members(obj: object, depth: int) -> str:
    """A non-empty, non-flat container's text, one member per line."""
    inner = depth + 1
    separator = ",\n" + " " * inner
    if type(obj) is dict:
        if not _STR_TYPE.issuperset(map(type, obj)):
            raise _Fallback("non-str key")
        keys = sorted(obj)
        body = separator.join([
            encode_basestring_ascii(key) + ": " + _value(obj[key], inner)
            for key in keys])
        return "{\n" + " " * inner + body + "\n" + " " * depth + "}"
    body = separator.join([_value(value, inner) for value in obj])
    return "[\n" + " " * inner + body + "\n" + " " * depth + "]"


def _value(value: object, depth: int) -> str:
    """One member's text; a container member opens at indent ``depth``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind in _SCALAR_TYPES:
        return _COMPACT(value, 0)[0]
    return _render(value, depth)


def _remember(key: str, text: str) -> None:
    """Store one sub-document's depth-0 text, starting over when full."""
    global _subdoc_bytes
    size = len(key) + len(text)  # both ASCII: characters are bytes
    if size > SUBDOC_MEMO_BYTES:
        return
    with _SUBDOC_LOCK:
        if _subdoc_bytes + size > SUBDOC_MEMO_BYTES:
            _SUBDOCS.clear()
            _subdoc_bytes = 0
        _SUBDOCS[key] = text
        _subdoc_bytes += size


@dataclass
class VerifyProblem:
    """One integrity failure found by :meth:`StoreBackend.verify`."""

    path: Path
    key: str
    problem: str

    def render(self) -> str:
        """One-line human form (used by ``repro store verify``)."""
        return f"{self.key[:16] or self.path.name}  {self.problem}"


@dataclass
class VerifyReport:
    """What a store fsck pass found (and optionally swept)."""

    checked: int = 0
    ok: int = 0
    meta_ok: bool = True
    problems: List[VerifyProblem] = field(default_factory=list)
    swept: int = 0

    @property
    def clean(self) -> bool:
        """Whether every record (and the metadata) verified."""
        return self.meta_ok and not self.problems


class StoreBackend(ABC):
    """Persistent-state contract one :class:`ResultStore` drives.

    Backends deal in raw record *documents* (plain dicts shaped
    ``{key, schema, provenance, tags, result}``); the facade owns the
    envelope construction, ``StoredResult`` (de)serialization and the
    hit/miss/put accounting policy. A backend must:

    * keep every write atomic from a concurrent reader's view;
    * keep counter read-modify-writes exact under multi-process
      concurrency (the 4-process stress test asserts exact totals);
    * degrade to a warn-once read-only mode on write failure instead of
      raising (the campaign must keep simulating on a full disk);
    * serve ``read_record`` tolerantly — corrupt is a warning and a
      miss, never a crash.
    """

    #: Short backend name (``filesystem`` / ``sqlite``).
    scheme: str = ""

    # -- identity ----------------------------------------------------------

    @abstractmethod
    def describe(self) -> str:
        """One-line human description (``sqlite store at /x.db``)."""

    @property
    @abstractmethod
    def read_only(self) -> bool:
        """Whether the backend degraded to read-only mode."""

    def close(self) -> None:
        """Release any process-local handles (connections, caches).

        The backend stays usable afterwards — operations transparently
        reacquire what they need. The filesystem backend holds nothing
        between operations, so the default is a no-op; the SQLite
        backend closes every connection this process opened.
        """

    # -- records -----------------------------------------------------------

    @abstractmethod
    def read_record(self, key: str) -> Optional[dict]:
        """One usable current-schema record document, or ``None``.

        Corrupt storage warns (:class:`ResultStoreWarning`) and returns
        ``None``; a wrong-schema record is a silent ``None``.
        """

    @abstractmethod
    def write_record(self, key: str, record: dict) -> bool:
        """Publish one record atomically; False when dropped (no counter
        effects either way)."""

    @abstractmethod
    def write_records(self, entries: Iterable[Tuple[str, dict]]) -> int:
        """Publish many record documents; returns how many were written."""

    @abstractmethod
    def update_tags(
        self, entries: Iterable[Tuple[str, str, Optional[dict]]]
    ) -> int:
        """Merge campaign tags into existing records (locked RMW).

        ``entries`` yields ``(key, campaign, meta)``; returns the number
        of records that carry their tag afterwards (missing records are
        skipped).
        """

    # -- counters ----------------------------------------------------------

    @abstractmethod
    def bump_counters(self, deltas: Dict[str, int]) -> None:
        """Add counter deltas; exact under concurrent writers."""

    @abstractmethod
    def counters(self) -> Dict[str, int]:
        """Fresh lifetime counter totals (always re-read, never cached)."""

    # -- quarantine ledger -------------------------------------------------

    @abstractmethod
    def quarantine(self) -> Dict[str, dict]:
        """The quarantine ledger: point key → failure entry."""

    @abstractmethod
    def quarantine_add(self, key: str, entry: dict) -> None:
        """Record one exhausted point in the ledger."""

    @abstractmethod
    def quarantine_clear(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop ledger entries (all, or just ``keys``); returns count."""

    @abstractmethod
    def quarantine_location(self) -> str:
        """Human pointer to where the ledger lives (CLI messages)."""

    # -- lease ledger ------------------------------------------------------

    @abstractmethod
    def leases(self) -> Dict[str, dict]:
        """Active distributed-execution leases: point key → entry.

        Maintained by the pool coordinator (see
        :mod:`repro.campaign.pool`): an entry appears when a unit is
        dispatched to a worker and disappears when it completes, is
        quarantined, or is reassigned. Normally empty between runs.
        """

    @abstractmethod
    def lease_update(self, key: str, entry: dict) -> None:
        """Record (or refresh) one point's lease."""

    @abstractmethod
    def lease_release(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop leases (all, or just ``keys``); returns count."""

    # -- campaign checkpoints ----------------------------------------------

    @abstractmethod
    def write_checkpoint(self, campaign: str, payload: dict) -> bool:
        """Publish one campaign's checkpoint; False when dropped."""

    @abstractmethod
    def read_checkpoint(self, campaign: str) -> Optional[dict]:
        """One campaign's checkpoint, if present and parsable."""

    @abstractmethod
    def checkpoints(self) -> Dict[str, dict]:
        """Every parsable checkpoint, by campaign name (migration)."""

    # -- inspection --------------------------------------------------------

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """All record keys present (any schema), sorted."""

    @abstractmethod
    def records(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every usable current-schema record."""

    @abstractmethod
    def dump(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every *parsable* record, any schema.

        The migration source: stale records are preserved verbatim,
        only unreadable ones are skipped (with a warning).
        """

    @abstractmethod
    def campaign_keys(self, campaign: str) -> List[str]:
        """Sorted keys of the records tagged by one campaign."""

    @abstractmethod
    def stats_counts(self) -> Dict[str, int]:
        """``records`` / ``stale_records`` / ``bytes`` footprint."""

    @abstractmethod
    def verify(self, gc: bool = False) -> VerifyReport:
        """Fsck every record; optionally sweep the ones that fail."""

    @abstractmethod
    def gc(self, remove_all: bool = False) -> int:
        """Remove stale (or, with ``remove_all``, every) record."""


def split_root(
    root: Union[str, Path], backend: Optional[str] = None
) -> Tuple[str, str, str]:
    """Resolve a store root to ``(scheme, location, display_root)``.

    ``scheme`` names the backend, ``location`` is what its constructor
    takes (directory for filesystem, database path for sqlite) and
    ``display_root`` is what the store reports as its root (the
    user-addressed path, e.g. the directory even when the database
    lives inside it). ``backend`` forces a scheme regardless of syntax.
    """
    raw = str(root)
    if raw.startswith("sqlite:"):
        rest = raw[len("sqlite:"):]
        return "sqlite", rest, rest
    if raw.startswith("file:"):
        rest = raw[len("file:"):]
        return "filesystem", rest, rest
    if backend is None:
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        backend = env or None
    if backend is not None and backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown store backend {backend!r} "
            f"(expected one of {', '.join(BACKEND_NAMES)})"
        )
    path = Path(raw)
    looks_sqlite = raw.endswith((".db", ".sqlite", ".sqlite3"))
    if backend == "filesystem":
        if looks_sqlite or path.is_file():
            raise ValueError(
                f"store root {raw!r} names a database file but the "
                f"filesystem backend was requested"
            )
        return "filesystem", raw, raw
    if looks_sqlite or path.is_file():
        return "sqlite", raw, raw
    if backend == "sqlite":
        return "sqlite", str(path / SQLITE_FILENAME), raw
    # A directory created by a previous sqlite-backed run keeps
    # resolving to sqlite even without $REPRO_STORE_BACKEND set.
    if (path / SQLITE_FILENAME).is_file() and not (path / "objects").is_dir():
        return "sqlite", str(path / SQLITE_FILENAME), raw
    return "filesystem", raw, raw


def create_backend(
    root: Union[str, Path], backend: Optional[str] = None
) -> Tuple[StoreBackend, str]:
    """Instantiate the backend a root resolves to.

    Returns ``(backend_instance, display_root)``; see :func:`split_root`
    for the resolution rules.
    """
    scheme, location, display = split_root(root, backend=backend)
    if scheme == "sqlite":
        from repro.store.sqlite import SQLiteBackend

        return SQLiteBackend(location), display
    from repro.store.fs import FilesystemBackend

    return FilesystemBackend(location), display
