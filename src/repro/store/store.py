"""The content-addressed result store: one class over one SQLite database.

:class:`ResultStore` is the whole store. It owns the store *policy* —
record envelopes, :class:`~repro.store.records.StoredResult`
(de)serialization, warm-start hit/miss/put accounting — and every table
operation on the one WAL-mode SQLite database that holds records, tags,
counters, the quarantine and lease ledgers and campaign checkpoints. A
plain directory root holds it as ``<dir>/store.sqlite``; see
:func:`~repro.store.backend.resolve_root` for the full root syntax.

Each record carries the key, the key schema version, a provenance
block (the canonical key components: config, cluster, jobconf, cost
model, fault plan, resolved interconnect), campaign tags added by
:mod:`repro.campaign`, and the :class:`~repro.store.records.StoredResult`
payload, stored as its canonical JSON text
(:func:`~repro.store.backend.dump_record_text`), so warm starts are
hex-exact. The ``schema`` column and the ``tags`` table index that
text and change in the same transaction as it.

Design points:

* **Warm starts are observable.** The store keeps lifetime ``puts``
  (simulations executed and recorded), ``hits`` and ``misses``
  counters; ``repro store stats`` prints them, so "the second run
  executed 0 simulations" is a checkable claim (``puts`` did not move).
* **One write path.** Every write is one ``BEGIN IMMEDIATE``
  transaction run by :meth:`ResultStore._write` under the busy retry,
  so concurrent readers never see half a record, counter upserts are
  exact across processes, and a put's records land with their ``puts``
  count or not at all.
* **Corruption is a warning, not a crash.** A record that fails to
  parse or validate is skipped with a :class:`ResultStoreWarning`; the
  point simply re-simulates (and ``repro store verify --gc`` can sweep
  it).
* **Unwritable roots degrade, they don't abort.** The first failed
  write (read-only filesystem, disk full) flips the store into a
  read-only mode: it warns once, keeps serving reads, and silently
  drops further writes so a long campaign keeps simulating.
* **Connections are per (process, thread)** (:meth:`ResultStore._db`);
  :meth:`ResultStore.close` works from any thread, and a store pickles
  without its connections.
* **Schema bumps invalidate.** Records whose ``schema`` differs from
  :data:`~repro.store.keys.SCHEMA_VERSION` never hit; ``gc`` removes
  them.
* **One path per operation.** ``get``, ``put`` and ``tag`` are the
  one-element case of ``get_batch``, ``put_many`` and ``tag_many``.
  Internal calls use the private bodies, never these public names, so
  a wrapper around each public method sees one call per operation.
* **The tag pass trusts the index.** A record's text and its ``tags``
  rows are written together, so ``tag``/``tag_many`` answer an entry
  whose row already holds the meta without reading the record, and a
  put that replaces a record carries the tags stored on it.
* **Integrity is checkable.** :meth:`ResultStore.verify` is an fsck
  (:func:`verify_record` per record, the ``tags`` index against the
  record text, canonical record text, ``PRAGMA quick_check`` for the
  database).
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.store.backend import (
    RecordDocument,
    ResultStoreWarning,
    VerifyProblem,
    VerifyReport,
    dump_record_text,
    resolve_root,
)
from repro.store.keys import SCHEMA_VERSION, stable_digest
from repro.store.records import StoredResult

#: Environment variable naming the default store root.
STORE_ENV_VAR = "REPRO_STORE"

#: Milliseconds a statement waits on a locked database before failing.
BUSY_TIMEOUT_MS = 30_000

#: Statement attempts before a persistent ``SQLITE_BUSY`` is treated as
#: a real failure (each retry backs off a little longer).
BUSY_RETRIES = 5

#: KiB of pages each connection caches (SQLite's default is 2 MiB).
#: Records are written once and read by key, so a repeat read is served
#: by the operating system's file cache, and a process holds one
#: connection per thread: the service's event loop, scheduler and
#: worker threads would otherwise each cache up to 2 MiB of the store.
CACHE_KIB = 256

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS records (
    key    TEXT PRIMARY KEY,
    schema INTEGER,
    record TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS tags (
    key      TEXT NOT NULL,
    campaign TEXT NOT NULL,
    meta     TEXT,
    PRIMARY KEY (key, campaign)
);
CREATE INDEX IF NOT EXISTS idx_tags_campaign ON tags (campaign, key);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key   TEXT PRIMARY KEY,
    entry TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS leases (
    key   TEXT PRIMARY KEY,
    entry TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    campaign TEXT PRIMARY KEY,
    payload  TEXT NOT NULL
);
"""

#: The tag pass's index lookup: one entry's meta text, when its record
#: exists at the current schema (the record text is never read).
_TAGGED_SQL = ("SELECT t.meta FROM tags AS t "
               "JOIN records AS r ON r.key = t.key "
               "WHERE t.key = ? AND t.campaign = ? AND r.schema = ?")

#: What :func:`_loads` returns for NULL or unparsable text; it equals
#: no meta.
_UNREADABLE = object()

_COUNTERS_SQL = "SELECT name, value FROM counters"

#: ``stats()``'s footprint: record count, current-schema count, record
#: bytes, quarantine and lease entries.
_FOOTPRINT_SQL = ("SELECT COUNT(*), "
                  "COALESCE(SUM(schema = ?), 0), "
                  "COALESCE(SUM(LENGTH(record)), 0), "
                  "(SELECT COUNT(*) FROM quarantine), "
                  "(SELECT COUNT(*) FROM leases) FROM records")

#: What every entry point taking a store accepts: a store or its root.
StoreLike = Union["ResultStore", str, "os.PathLike[str]"]


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


def as_store(store: StoreLike) -> "ResultStore":
    """``store`` itself if it is a :class:`ResultStore`, else the store
    at that root (a ``str`` or any path-like object)."""
    return store if isinstance(store, ResultStore) else ResultStore(store)


def _execute(db: sqlite3.Connection, sql: str,
             params: Tuple = ()) -> sqlite3.Cursor:
    """Run one statement (module-level seam for fault-injection tests).

    Tests monkeypatch this to make statements fail — as root, permission
    tricks can't produce a read-only database.
    """
    return db.execute(sql, params)


def _loads(text: Optional[str]) -> object:
    """The value of one column's JSON text, or :data:`_UNREADABLE` when
    it is NULL or does not parse."""
    if text is None:
        return _UNREADABLE
    try:
        return json.loads(text)
    except ValueError:
        return _UNREADABLE


def _counter_totals(rows: Iterable[tuple]) -> Dict[str, int]:
    """Lifetime counter totals from ``counters`` rows."""
    totals = {"puts": 0, "hits": 0, "misses": 0}
    for name, value in rows:
        totals[name] = int(value)
    return totals


@contextlib.contextmanager
def _write_txn(db: sqlite3.Connection):
    """An IMMEDIATE write transaction (commit on exit, rollback on error).

    ``BEGIN IMMEDIATE`` takes the database write lock *before* any read
    inside the block, which is what makes read-modify-writes (tag
    merges) safe across processes: a deferred transaction would let two
    writers read the same old row and silently drop each other's
    update. Concurrent writers queue on the busy timeout instead.
    """
    _execute(db, "BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        db.rollback()
        raise
    else:
        db.commit()


def _busy(exc: BaseException) -> bool:
    """Whether an error is transient lock contention (retryable)."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class ResultStore:
    """Content-addressed simulation results in one SQLite database."""

    #: Storage scheme, reported by ``stats()`` as ``backend``.
    scheme = "sqlite"

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        """Open (without creating) the store rooted at ``root``.

        ``root`` accepts a directory, a ``sqlite:PATH`` URL or a
        database path (:func:`~repro.store.backend.resolve_root`).
        Nothing touches the filesystem until the first operation, so
        constructing a store never creates an empty database.
        """
        self.location, display = resolve_root(root)
        self.root = Path(display)
        self._read_only = False
        self._stats_cache: Optional[Dict[str, object]] = None
        self._init_conn_state()

    @property
    def backend(self) -> "ResultStore":
        """This store, read-only. Kept only because the benchmark's host
        fingerprint (``perfbench/common.py``) reads the ``scheme`` of
        ``ResultStore(root).backend``."""
        return self

    def describe(self) -> str:
        """One-line human description (scheme and location)."""
        return f"sqlite store at {self.location}"

    @property
    def quarantine_location(self) -> str:
        """Human pointer to the quarantine ledger."""
        return f"{self.location} (quarantine table)"

    # -- connection --------------------------------------------------------

    def _init_conn_state(self) -> None:
        """(Re)create the per-thread connection cache, empty."""
        #: Thread-local slot: each thread caches its own connection
        #: (plus the pid and generation it was opened under).
        self._local = threading.local()
        #: Every connection this process opened, for close(): a list of
        #: (connection, pid) pairs behind a lock.
        self._conns: List[Tuple[sqlite3.Connection, int]] = []
        self._conns_lock = threading.Lock()
        #: Bumped by close() so threads whose cached connection was
        #: closed from another thread reconnect instead of using it.
        self._generation = 0

    def _db(self) -> sqlite3.Connection:
        """This thread's connection (reopened after ``fork``/``close``).

        sqlite3 connections have thread affinity, so the cache is a
        :class:`threading.local` keyed by pid and close-generation: a
        second thread gets its own connection instead of tripping
        sqlite3's thread check, a forked child never touches (or even
        closes) an inherited pre-fork connection — the reference is
        simply dropped — and a thread whose connection :meth:`close`
        swept reconnects transparently.
        """
        pid = os.getpid()
        conn = getattr(self._local, "conn", None)
        if (conn is not None and self._local.pid == pid
                and self._local.generation == self._generation):
            return conn
        self._local.conn = None
        self.location.parent.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False lets close() finalize connections
        # opened by other threads; every connection is still *used*
        # exclusively by the thread that opened it.
        conn = sqlite3.connect(str(self.location),
                               timeout=BUSY_TIMEOUT_MS / 1000.0,
                               check_same_thread=False)
        try:
            # Autocommit mode: transactions are managed explicitly via
            # _write_txn (BEGIN IMMEDIATE), never implicitly by sqlite3.
            conn.isolation_level = None
            _execute(conn, "PRAGMA journal_mode=WAL")
            _execute(conn, "PRAGMA synchronous=NORMAL")
            _execute(conn, f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            _execute(conn, f"PRAGMA cache_size=-{CACHE_KIB}")
            with conn:
                conn.executescript(_SCHEMA_SQL)
        except BaseException:
            conn.close()
            raise
        self._local.conn = conn
        self._local.pid = pid
        self._local.generation = self._generation
        with self._conns_lock:
            self._conns.append((conn, pid))
        return conn

    def close(self) -> None:
        """Close every connection this process opened.

        Safe to call from any thread (connections are created
        ``check_same_thread=False``); threads that keep using the store
        afterwards transparently reconnect. Inherited pre-fork
        connections are skipped — only their opener may touch them.
        """
        pid = os.getpid()
        with self._conns_lock:
            remaining: List[Tuple[sqlite3.Connection, int]] = []
            for conn, conn_pid in self._conns:
                if conn_pid != pid:
                    remaining.append((conn, conn_pid))
                    continue
                with contextlib.suppress(sqlite3.Error):
                    conn.close()
            self._conns = remaining
            self._generation += 1

    def __getstate__(self) -> dict:
        """Pickle without the (unpicklable, unshareable) connections."""
        state = dict(self.__dict__)
        for transient in ("_local", "_conns", "_conns_lock"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        """Unpickle with a fresh, empty connection cache."""
        self.__dict__.update(state)
        self._init_conn_state()

    # -- retry, writes and degradation -------------------------------------

    @property
    def read_only(self) -> bool:
        """Whether the store has degraded to read-only mode."""
        return self._read_only

    def _degrade(self, exc: Exception) -> None:
        """Flip into read-only mode (warning once, never raising)."""
        if not self._read_only:
            warnings.warn(
                f"store {self.location} is unwritable ({exc}); continuing "
                f"in read-only mode — results are NOT being recorded",
                ResultStoreWarning, stacklevel=5,
            )
            self._read_only = True

    def _retry(self, operation):
        """Run one read or write operation, retrying lock contention.

        SQLite's busy handler covers most contention, but a few windows
        return ``SQLITE_BUSY`` without consulting it — the journal-mode
        pragma while a freshly created database is still in rollback
        mode, and deadlock avoidance on lock upgrades. Those mean
        "another connection got there first", not "the store is
        unwritable" or "the record is missing", so they must neither
        degrade the store nor turn a hit into a miss: roll back, back
        off, try again. A persistent failure propagates to the caller
        (a write degrades, a read warns).
        """
        for attempt in range(BUSY_RETRIES):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _busy(exc) or attempt == BUSY_RETRIES - 1:
                    raise
                conn = getattr(self._local, "conn", None)
                if conn is not None:
                    with contextlib.suppress(sqlite3.Error):
                        conn.rollback()
                time.sleep(0.01 * (attempt + 1))
        return None  # pragma: no cover - the loop returns or raises

    def _write(self, operation, default):
        """Run one write transaction; every write goes through here.

        ``operation(db)`` runs inside ``BEGIN IMMEDIATE`` under the busy
        retry, and its return value is passed back. A read-only store
        skips the write; a failing one degrades to read-only. Either
        way the caller gets ``default``.
        """
        if self._read_only:
            return default

        def transaction():
            db = self._db()
            with _write_txn(db):
                return operation(db)

        try:
            return self._retry(transaction)
        except (sqlite3.Error, OSError) as exc:
            self._degrade(exc)
            return default

    def _read(self, operation, default):
        """Run one read, tolerating an unopenable/corrupt database.

        ``operation(db)`` runs under the busy retry and its return value
        is passed back. A database that cannot be read warns once and
        gives ``default``.
        """
        try:
            return self._retry(lambda: operation(self._db()))
        except (sqlite3.Error, OSError) as exc:
            warnings.warn(
                f"unreadable store database {self.location}: {exc}",
                ResultStoreWarning, stacklevel=5,
            )
            return default

    def _rows(self, sql: str, params: Tuple = ()) -> List[tuple]:
        """Fetch query rows (none, with one warning, when unreadable)."""
        return self._read(
            lambda db: _execute(db, sql, params).fetchall(), [])

    # -- records -----------------------------------------------------------

    def _parse(self, key: str, text: str) -> Optional[dict]:
        """Parse one record document; warn and return None if corrupt."""
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("record is not a JSON object")
        except ValueError as exc:
            warnings.warn(
                f"skipping corrupted store record {key[:16]} in "
                f"{self.location}: {exc}",
                ResultStoreWarning, stacklevel=4,
            )
            return None
        return data

    def _read_record(self, key: str) -> Optional[RecordDocument]:
        """One usable current-schema record document, or None."""
        rows = self._rows("SELECT record FROM records WHERE key = ?",
                          (key,))
        if not rows:
            return None
        text = rows[0][0]
        data = self._parse(key, text)
        if data is None or data.get("schema") != SCHEMA_VERSION:
            return None
        return RecordDocument(data, text)

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
        return self._read_record(key) is not None

    def fetch_record(self, key: str) -> Optional[RecordDocument]:
        """One usable record *document* — no counter side effects.

        The raw envelope dict (``{key, schema, provenance, tags,
        result}``) as a :class:`~repro.store.backend.RecordDocument`,
        whose ``text`` is the stored text it was parsed from: its
        canonical serialization
        (:func:`~repro.store.backend.dump_record_text`), which
        :meth:`verify` checks. The benchmark service serves that text
        as is, with one read and no second serialization. Lookups
        through this path are the *caller's* to account (the service
        keeps request-level counters), unlike :meth:`get`, which bumps
        the store's own hit/miss counters.
        """
        return self._read_record(key)

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
        results = [self._load_result(key, self._read_record(key))
                   for key in keys]
        hits = sum(1 for result in results if result is not None)
        self.bump_counters({"hits": hits, "misses": len(results) - hits})
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

    @staticmethod
    def _tag_index(record: dict) -> Dict[str, str]:
        """The ``tags`` rows one record document indexes to: campaign
        → meta text."""
        tags = record.get("tags")
        if not isinstance(tags, dict):
            return {}
        return {str(campaign): json.dumps(meta, sort_keys=True)
                for campaign, meta in tags.items()}

    @staticmethod
    def _publish(db: sqlite3.Connection, key: str, record: dict) -> None:
        """Write one record document and its tag index rows (inside a
        transaction)."""
        _execute(db,
                 "INSERT INTO records (key, schema, record) VALUES (?, ?, ?) "
                 "ON CONFLICT(key) DO UPDATE SET "
                 "schema = excluded.schema, record = excluded.record",
                 (key, record.get("schema"), dump_record_text(record)))
        _execute(db, "DELETE FROM tags WHERE key = ?", (key,))
        for campaign, meta in ResultStore._tag_index(record).items():
            _execute(db,
                     "INSERT INTO tags (key, campaign, meta) "
                     "VALUES (?, ?, ?)",
                     (key, campaign, meta))

    @staticmethod
    def _indexed_tags(db: sqlite3.Connection, key: str) -> Dict[str, object]:
        """One key's tags as its index rows hold them (inside a
        transaction); a row whose meta is NULL or unparsable is left
        out."""
        tags: Dict[str, object] = {}
        for campaign, text in _execute(
                db, "SELECT campaign, meta FROM tags WHERE key = ?",
                (key,)).fetchall():
            meta = _loads(text)
            if meta is not _UNREADABLE:
                tags[campaign] = meta
        return tags

    def write_records(self, entries: Iterable[Tuple[str, dict]]) -> int:
        """Publish many raw record documents in one transaction.

        No ``puts`` accounting: this is how ``repro store migrate``
        copies records verbatim. Returns the number written.
        """
        entries = list(entries)
        if not entries:
            return 0

        def publish(db: sqlite3.Connection) -> int:
            for key, record in entries:
                self._publish(db, key, record)
            return len(entries)

        return self._write(publish, 0)

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
        """Record many points and their ``puts`` count in one transaction.

        ``entries`` yields ``(key, result, provenance, tags)`` tuples.
        Writing campaign tags at put time makes a later
        :meth:`tag`/:meth:`tag_many` of the same ``{campaign: meta}``
        an index lookup that never reads the record (records serialize
        with the same canonical formatting either way, so the stored
        bytes are identical). A put that replaces a record keeps the
        tags other campaigns stored on it; where both name a campaign,
        the put's meta wins. A failed write degrades the store exactly
        like :meth:`put`. Returns the database path once per entry.
        """
        return self._put_many(entries)

    def _put_many(
        self,
        entries: Iterable[Tuple[str, StoredResult, Optional[dict],
                                Optional[dict]]],
    ) -> List[Path]:
        """The one write body behind :meth:`put` and :meth:`put_many`.

        The records and the ``puts`` bump share one transaction, so a
        writer that dies mid-put leaves neither behind. The tag rows of
        a record being replaced are carried into the new record's
        ``tags`` in the same transaction, so a re-put never drops a tag
        another campaign stored; a first-time put writes its envelope
        unchanged.
        """
        records = [(key, self._envelope(key, result, provenance, tags))
                   for key, result, provenance, tags in entries]
        if records:
            def publish(db: sqlite3.Connection) -> None:
                for key, record in records:
                    carried = self._indexed_tags(db, key)
                    if carried:
                        carried.update(record["tags"])
                        record = dict(record, tags=carried)
                    self._publish(db, key, record)
                self._add_counters(db, {"puts": len(records)})

            self._write(publish, None)
        return [self.location] * len(records)

    def tag(self, key: str, campaign: str,
            meta: Optional[dict] = None) -> bool:
        """Stamp a campaign tag onto an existing record.

        Tags are how the Experiment Book finds a campaign's points from
        store contents alone. Returns False when the record is missing.
        The one-entry case of :meth:`tag_many`: the record
        read-modify-write is transactional so two concurrent campaigns
        never drop each other's tags.
        """
        return self._update_tags([(key, campaign, meta)]) == 1

    def tag_many(
        self,
        entries: Iterable[Tuple[str, str, Optional[dict]]],
    ) -> int:
        """Stamp many campaign tags in one transaction.

        ``entries`` yields ``(key, campaign, meta)`` triples. Returns
        the number of records that carry the tag afterwards (missing
        records are skipped, like :meth:`tag` returning False).
        """
        return self._update_tags(entries)

    def _update_tags(
        self, entries: Iterable[Tuple[str, str, Optional[dict]]]
    ) -> int:
        """The one tag body behind :meth:`tag` and :meth:`tag_many`.

        :meth:`_publish` writes a record's text and its ``tags`` rows in
        one transaction, so the index answers "does this record already
        carry this tag?" exactly. Inside the write transaction each entry
        is first looked up there: a current-schema record whose row holds
        an equal meta (a value comparison, so ``0`` and ``0.0`` agree)
        counts as tagged without its record being read. Every other
        entry merges the tag into the parsed document and rewrites the
        canonical text and its rows. The lookup runs under the write lock
        and sees this transaction's own writes, so a concurrent re-put or
        a key named twice in one call gets the answer reading the record
        would give. When the write is skipped or fails, the readable
        records are counted.
        """
        entries = list(entries)
        if not entries:
            return 0

        def merge(db: sqlite3.Connection) -> int:
            tagged = 0
            for key, campaign, meta in entries:
                row = _execute(db, _TAGGED_SQL,
                               (key, campaign, SCHEMA_VERSION)).fetchone()
                if row is not None and _loads(row[0]) == (meta or {}):
                    tagged += 1
                    continue
                row = _execute(
                    db, "SELECT record FROM records WHERE key = ?",
                    (key,)).fetchone()
                if row is None:
                    continue
                data = self._parse(key, row[0])
                if data is None or data.get("schema") != SCHEMA_VERSION:
                    continue
                tags = data.setdefault("tags", {})
                if tags.get(campaign) != (meta or {}):
                    tags[campaign] = meta or {}
                    self._publish(db, key, data)
                tagged += 1
            return tagged

        tagged = self._write(merge, None)
        if tagged is None:
            tagged = sum(1 for key, _c, _m in entries
                         if self._read_record(key) is not None)
        return tagged

    # -- counters ----------------------------------------------------------

    @staticmethod
    def _add_counters(db: sqlite3.Connection,
                      deltas: Dict[str, int]) -> None:
        """Add counter deltas as upserts (inside a transaction)."""
        for name, n in sorted(deltas.items()):
            _execute(
                db,
                "INSERT INTO counters (name, value) VALUES (?, ?) "
                "ON CONFLICT(name) DO UPDATE SET "
                "value = value + excluded.value",
                (name, n))

    def bump_counters(self, deltas: Dict[str, int]) -> None:
        """Add counter deltas in one transaction (exact under
        concurrency; zero deltas are skipped)."""
        deltas = {name: n for name, n in deltas.items() if n}
        if deltas:
            self._write(lambda db: self._add_counters(db, deltas), None)

    def counters(self) -> Dict[str, int]:
        """Fresh lifetime counter totals."""
        return _counter_totals(self._rows(_COUNTERS_SQL))

    # -- quarantine and lease ledgers --------------------------------------

    def _ledger(self, table: str) -> Dict[str, dict]:
        """One ledger table's entries: point key → entry."""
        out: Dict[str, dict] = {}
        for key, text in self._rows(
                f"SELECT key, entry FROM {table} ORDER BY key"):
            try:
                entry = json.loads(text)
            except ValueError:
                entry = {}
            out[key] = entry if isinstance(entry, dict) else {}
        return out

    def _ledger_upsert(self, table: str, key: str, entry: dict) -> None:
        """Insert or replace one ledger entry."""
        self._write(lambda db: _execute(
            db,
            f"INSERT INTO {table} (key, entry) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET entry = excluded.entry",
            (key, json.dumps(entry, sort_keys=True))), None)

    def _ledger_drop(self, table: str,
                     keys: Optional[Iterable[str]]) -> int:
        """Drop ledger entries (all of them, or just ``keys``)."""
        targets = None if keys is None else list(keys)

        def drop(db: sqlite3.Connection) -> int:
            if targets is None:
                return _execute(db, f"DELETE FROM {table}").rowcount
            return sum(
                _execute(db, f"DELETE FROM {table} WHERE key = ?",
                         (key,)).rowcount
                for key in targets)

        return self._write(drop, 0)

    def quarantine(self) -> Dict[str, dict]:
        """The quarantine ledger: point key → failure entry."""
        return self._ledger("quarantine")

    def quarantine_add(self, key: str, entry: dict) -> None:
        """Record one exhausted point in the ledger (upsert)."""
        self._ledger_upsert("quarantine", key, entry)

    def quarantine_clear(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop ledger entries (all of them, or just ``keys``).

        Returns the number of entries removed. Used by
        ``repro campaign resume`` so quarantined points get a fresh set
        of attempts.
        """
        return self._ledger_drop("quarantine", keys)

    def leases(self) -> Dict[str, dict]:
        """Active distributed-execution leases: point key → entry.

        Written by the pool coordinator
        (:mod:`repro.campaign.pool`) when units are dispatched to
        workers; released on completion, quarantine or reassignment.
        Non-empty between runs means a coordinator died hard — the
        entries say which worker held which point.
        """
        return self._ledger("leases")

    def lease_update(self, key: str, entry: dict) -> None:
        """Record (or refresh) one point's lease (upsert)."""
        self._ledger_upsert("leases", key, entry)

    def lease_release(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop leases (all of them, or just ``keys``)."""
        return self._ledger_drop("leases", keys)

    # -- campaign checkpoints ----------------------------------------------

    def write_checkpoint(self, campaign: str,
                         payload: dict) -> Optional[Path]:
        """Publish one campaign's progress checkpoint atomically,
        stamped with the schema version.

        Returns the database path, or None when the write was dropped.
        """
        return self._put_checkpoint(
            campaign, dict(payload, schema=SCHEMA_VERSION))

    def _put_checkpoint(self, campaign: str,
                        payload: dict) -> Optional[Path]:
        """Upsert one checkpoint verbatim (``migrate_store`` copies
        through here); the database path, or None when dropped."""
        def publish(db: sqlite3.Connection) -> Path:
            _execute(
                db,
                "INSERT INTO checkpoints (campaign, payload) "
                "VALUES (?, ?) ON CONFLICT(campaign) DO UPDATE SET "
                "payload = excluded.payload",
                (campaign, json.dumps(payload, sort_keys=True)))
            return self.location

        return self._write(publish, None)

    @staticmethod
    def _parse_checkpoint(campaign: str, text: str) -> Optional[dict]:
        """One checkpoint payload; warn and return None if unreadable."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            warnings.warn(
                f"unreadable checkpoint for campaign {campaign!r}: {exc}",
                ResultStoreWarning, stacklevel=3,
            )
            return None
        return data if isinstance(data, dict) else None

    def read_checkpoint(self, campaign: str) -> Optional[dict]:
        """Load one campaign's checkpoint, if present and parsable."""
        rows = self._rows(
            "SELECT payload FROM checkpoints WHERE campaign = ?",
            (campaign,))
        return self._parse_checkpoint(campaign, rows[0][0]) if rows else None

    def checkpoints(self) -> Dict[str, dict]:
        """Every parsable checkpoint, by campaign name."""
        out: Dict[str, dict] = {}
        for campaign, payload in self._rows(
                "SELECT campaign, payload FROM checkpoints "
                "ORDER BY campaign"):
            data = self._parse_checkpoint(campaign, payload)
            if data is not None:
                out[campaign] = data
        return out

    # -- inspection --------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All record keys present (any schema), sorted."""
        return iter([key for (key,) in self._rows(
            "SELECT key FROM records ORDER BY key")])

    def records(self) -> Iterator[Tuple[str, dict]]:
        """(key, record) pairs for every usable current-schema record."""
        for key, data in self.dump():
            if data.get("schema") == SCHEMA_VERSION:
                yield key, data

    def dump(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every parsable record, any schema."""
        for key, text in self._rows(
                "SELECT key, record FROM records ORDER BY key"):
            data = self._parse(key, text)
            if data is not None:
                yield key, data

    def campaign_keys(self, campaign: str) -> List[str]:
        """Sorted keys of the records one campaign tagged (indexed)."""
        return [key for (key,) in self._rows(
            "SELECT key FROM tags WHERE campaign = ? ORDER BY key",
            (campaign,))]

    def stats(self, cached: bool = False) -> Dict[str, object]:
        """Counters plus storage footprint.

        By default counters are re-read from the database so a
        long-lived handle sees bumps made by concurrent processes, not
        a stale cache — the footprint counts are SQL aggregates over
        every record. ``cached=True`` returns the last computed
        snapshot when one exists (copied, so callers can annotate it
        freely), only falling back to a fresh read the first time; a
        hot stats endpoint serves the cache and refreshes on its own
        schedule via ``stats()``. Both queries are one read, so an
        unreadable database warns once per call and reports zeros.
        """
        if cached and self._stats_cache is not None:
            return dict(self._stats_cache)

        def read(db: sqlite3.Connection):
            return (_execute(db, _COUNTERS_SQL).fetchall(),
                    _execute(db, _FOOTPRINT_SQL,
                             (SCHEMA_VERSION,)).fetchone())

        counter_rows, footprint = self._read(read, ([], None))
        total, current, nbytes, quarantined, leases = (
            footprint or (0, 0, 0, 0, 0))
        stats: Dict[str, object] = dict(_counter_totals(counter_rows))
        stats.update(
            records=int(current),
            stale_records=int(total) - int(current),
            bytes=int(nbytes),
            root=str(self.root), schema=SCHEMA_VERSION,
            backend=self.scheme,
            quarantined=int(quarantined),
            leases=int(leases),
        )
        self._stats_cache = dict(stats)
        return stats

    def verify(self, gc: bool = False) -> VerifyReport:
        """Fsck every record; optionally sweep the ones that fail.

        Checks, per record (:func:`verify_record`): it parses to an
        object, the embedded ``key`` matches the stored key, ``schema``
        matches :data:`~repro.store.keys.SCHEMA_VERSION`, the result
        payload loads as a :class:`StoredResult`, and — when a
        provenance block is present — the provenance hashes back to the
        record's own key (the content-address actually addresses the
        content). A sound record's ``tags`` object must also match its
        rows in the ``tags`` index, meta for meta as the text
        :meth:`_publish` writes, and every index row must belong to a
        record: the tag pass answers from the index alone. Its text must
        be canonical, ``dump_record_text`` of the document it parses
        to: :meth:`fetch_record` readers serve that text as is. The
        metadata check is SQLite's own ``PRAGMA quick_check``.

        ``gc=True`` sweeps every failing record (exactly the set that
        would otherwise warn as :class:`ResultStoreWarning` or never
        hit), publishes a sound record with drifted rows or
        non-canonical text again from the document its text parses to,
        and drops rows that have no record; ``swept`` counts the
        problems it resolved.
        """
        report = VerifyReport()
        try:
            check = self._retry(lambda: _execute(
                self._db(), "PRAGMA quick_check").fetchone())
            report.meta_ok = bool(check) and check[0] == "ok"
        except (sqlite3.Error, OSError):
            report.meta_ok = False

        def scan(db: sqlite3.Connection):
            return (_execute(db, "SELECT key, record FROM records "
                                 "ORDER BY key").fetchall(),
                    _execute(db, "SELECT key, campaign, meta "
                                 "FROM tags").fetchall())

        records, tag_rows = self._read(scan, ([], []))
        index: Dict[str, Dict[str, Optional[str]]] = {}
        for key, campaign, meta in tag_rows:
            index.setdefault(key, {})[campaign] = meta
        failing: List[str] = []
        drifted: List[str] = []
        for key, text in records:
            report.checked += 1
            rows = index.pop(key, {})
            try:
                data = json.loads(text)
            except ValueError as exc:
                problem: Optional[str] = f"unparsable: {exc}"
            else:
                problem = verify_record(key, data)
            if problem is not None:
                failing.append(key)
            elif self._tag_index(data) != rows:
                problem = "tags index disagrees with the record's tags"
                drifted.append(key)
            elif dump_record_text(data) != text:
                problem = "record text is not canonical"
                drifted.append(key)
            else:
                report.ok += 1
                continue
            report.problems.append(VerifyProblem(
                path=self.location, key=key, problem=problem))
        orphans = sorted(index)
        for key in orphans:
            report.problems.append(VerifyProblem(
                path=self.location, key=key,
                problem=f"{len(index[key])} tag row(s) with no record"))
        if gc and report.problems:
            report.swept = self._sweep(failing, drifted, orphans)
        return report

    def _sweep(self, failing: List[str], drifted: List[str],
               orphans: List[str]) -> int:
        """Resolve verify's problems in one transaction; returns how many.

        Failing records are dropped with their rows. A drifted record is
        published again from the document its text parses to now, which
        rebuilds its rows and writes its canonical text. An orphan key's
        rows are dropped unless a record arrived since the scan.
        """
        def sweep(db: sqlite3.Connection) -> int:
            resolved = self._drop(db, failing)
            for key in drifted:
                row = _execute(db, "SELECT record FROM records WHERE key = ?",
                               (key,)).fetchone()
                data = _loads(row[0]) if row is not None else None
                if isinstance(data, dict):
                    self._publish(db, key, data)
                    resolved += 1
            for key in orphans:
                cursor = _execute(
                    db, "DELETE FROM tags WHERE key = ? AND NOT EXISTS "
                        "(SELECT 1 FROM records WHERE key = ?)", (key, key))
                resolved += cursor.rowcount > 0
            return resolved

        return self._write(sweep, 0)

    @staticmethod
    def _drop(db: sqlite3.Connection, keys: List[str]) -> int:
        """Drop record rows and their tag index rows (inside a
        transaction); returns the records removed."""
        removed = 0
        for key in keys:
            removed += _execute(
                db, "DELETE FROM records WHERE key = ?", (key,)).rowcount
            _execute(db, "DELETE FROM tags WHERE key = ?", (key,))
        return removed

    def gc(self, remove_all: bool = False) -> int:
        """Remove stale (wrong-schema or unreadable) records.

        ``remove_all=True`` empties the store instead. Returns the
        number of records removed.
        """
        stale: List[str] = []
        for key, text in self._rows(
                "SELECT key, record FROM records ORDER BY key"):
            if remove_all:
                stale.append(key)
                continue
            try:
                if json.loads(text).get("schema") == SCHEMA_VERSION:
                    continue
            except (ValueError, AttributeError):
                pass
            stale.append(key)
        return self._write(lambda db: self._drop(db, stale), 0)

    def export(self) -> Iterator[str]:
        """Each usable record as one JSON line (``repro store export``)."""
        for _key, record in self.records():
            yield json.dumps(record, sort_keys=True)


def verify_record(key: str, data: object) -> Optional[str]:
    """The integrity problem of one parsed record, or None if sound."""
    if not isinstance(data, dict):
        return "not a JSON object"
    if data.get("key") != key:
        return (f"key mismatch: record says "
                f"{str(data.get('key'))[:16]!r}")
    if data.get("schema") != SCHEMA_VERSION:
        return (f"stale schema {data.get('schema')!r} "
                f"(current: {SCHEMA_VERSION})")
    try:
        StoredResult.from_dict(data["result"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result payload: {exc}"
    provenance = data.get("provenance")
    if provenance:
        try:
            digest = stable_digest(provenance)
        except TypeError as exc:
            return f"unhashable provenance: {exc}"
        if digest != key:
            return "provenance does not hash to the record key"
    return None
