"""The store backend: one SQLite database file in WAL mode.

Real transactions for every read-modify-write, an indexed ``tags``
table so ``repro store ls --campaign`` doesn't scan every record, and
``ls``/``stats``/``verify`` that stay fast over millions of records
because they are SQL aggregates.

The record *document* is stored as its canonical JSON text
(:func:`~repro.store.backend.dump_record_text`), so a migrated store is
byte-lossless and the bit-identity contract holds. The ``schema``
column and the ``tags`` table are denormalized indexes over that text,
kept in sync inside the same transaction as every record write.

Concurrency: WAL journal mode (readers never block the writer),
``synchronous=NORMAL`` (safe with WAL), a 30 s busy timeout, and
counter bumps as single ``UPSERT`` statements — exact under concurrent
processes. A few windows return ``SQLITE_BUSY`` without consulting the
busy timeout, so every statement, read or write, goes through one
retry loop (:meth:`SQLiteBackend._retry`). Connections are
per-(process, thread): a :class:`threading.local` cache hands every
thread its own connection (sqlite3 connections have thread affinity —
one shared per-process connection made any second thread, e.g. the
benchmark service's scheduler or an asyncio ``to_thread`` call, raise
``sqlite3.ProgrammingError``), a PID guard reopens after ``fork``, and
an inherited pre-fork connection is never reused, per the SQLite
across-fork rules. :meth:`SQLiteBackend.close` closes every connection
this process opened (they are created ``check_same_thread=False``
precisely so one thread can close all of them; each is still *used*
only by its owning thread).

Every write — records, tags, counters, ledgers, checkpoints, sweeps —
runs through one helper (:meth:`SQLiteBackend._write`): one
``BEGIN IMMEDIATE`` transaction under the busy retry. Write failures
(disk full, read-only database) degrade the backend to warn-once
read-only mode: campaigns keep simulating, results just stop being
recorded.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.store.backend import (
    ResultStoreWarning,
    VerifyProblem,
    VerifyReport,
    dump_record_text,
)
from repro.store.keys import SCHEMA_VERSION, stable_digest
from repro.store.records import StoredResult

#: Milliseconds a statement waits on a locked database before failing.
BUSY_TIMEOUT_MS = 30_000

#: Statement attempts before a persistent ``SQLITE_BUSY`` is treated as
#: a real failure (each retry backs off a little longer).
BUSY_RETRIES = 5

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


def _execute(db: sqlite3.Connection, sql: str,
             params: Tuple = ()) -> sqlite3.Cursor:
    """Run one statement (module-level seam for fault-injection tests).

    Tests monkeypatch this to make statements fail — as root, permission
    tricks can't produce a read-only database.
    """
    return db.execute(sql, params)


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


class SQLiteBackend:
    """Content-addressed records in one WAL-mode SQLite database."""

    #: Backend name, reported by ``stats()`` as ``backend``.
    scheme = "sqlite"

    def __init__(self, location: Union[str, Path]):
        """Open (lazily) the database at ``location``.

        Nothing touches the filesystem until the first operation, so
        constructing a store never creates an empty database.
        """
        self.location = Path(location)
        self._read_only = False
        self._init_conn_state()

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
        second thread gets its own connection instead of tripping the
        driver's thread check, a forked child never touches (or even
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
            # _write_txn (BEGIN IMMEDIATE), never implicitly by the
            # driver.
            conn.isolation_level = None
            _execute(conn, "PRAGMA journal_mode=WAL")
            _execute(conn, "PRAGMA synchronous=NORMAL")
            _execute(conn, f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
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
        ``check_same_thread=False``); threads that keep using the
        backend afterwards transparently reconnect. Inherited pre-fork
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

    def describe(self) -> str:
        """One-line human description of this backend."""
        return f"sqlite store at {self.location}"

    def quarantine_location(self) -> str:
        """Where the quarantine ledger lives."""
        return f"{self.location} (quarantine table)"

    # -- degradation -------------------------------------------------------

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

    def _rows(self, sql: str, params: Tuple = ()) -> List[tuple]:
        """Fetch query rows, tolerating an unopenable/corrupt database."""
        try:
            return self._retry(
                lambda: _execute(self._db(), sql, params).fetchall())
        except (sqlite3.Error, OSError) as exc:
            warnings.warn(
                f"unreadable store database {self.location}: {exc}",
                ResultStoreWarning, stacklevel=4,
            )
            return []

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

    def read_record(self, key: str) -> Optional[dict]:
        """One usable current-schema record document, or None."""
        rows = self._rows("SELECT record FROM records WHERE key = ?",
                          (key,))
        if not rows:
            return None
        data = self._parse(key, rows[0][0])
        if data is None or data.get("schema") != SCHEMA_VERSION:
            return None
        return data

    @staticmethod
    def _record_statements(
        key: str, record: dict
    ) -> List[Tuple[str, Tuple]]:
        """The statements publishing one record (and its tag index)."""
        statements: List[Tuple[str, Tuple]] = [
            ("INSERT INTO records (key, schema, record) VALUES (?, ?, ?) "
             "ON CONFLICT(key) DO UPDATE SET "
             "schema = excluded.schema, record = excluded.record",
             (key, record.get("schema"), dump_record_text(record))),
            ("DELETE FROM tags WHERE key = ?", (key,)),
        ]
        tags = record.get("tags")
        if isinstance(tags, dict):
            for campaign, meta in tags.items():
                statements.append(
                    ("INSERT INTO tags (key, campaign, meta) "
                     "VALUES (?, ?, ?)",
                     (key, str(campaign), json.dumps(meta, sort_keys=True))))
        return statements

    def write_records(self, entries: Iterable[Tuple[str, dict]]) -> int:
        """Publish many record documents in one transaction."""
        entries = list(entries)
        if not entries:
            return 0

        def publish(db: sqlite3.Connection) -> int:
            for key, record in entries:
                for sql, params in self._record_statements(key, record):
                    _execute(db, sql, params)
            return len(entries)

        return self._write(publish, 0)

    def update_tags(
        self, entries: Iterable[Tuple[str, str, Optional[dict]]]
    ) -> int:
        """Merge campaign tags into existing records (one transaction).

        The record text and the ``tags`` index move together: the tag is
        merged into the parsed document, the canonical text rewritten,
        and the index row upserted — all inside a single transaction, so
        a reader (or a migration) never sees them disagree. When the
        write is skipped or fails, the readable records are counted.
        """
        entries = list(entries)
        if not entries:
            return 0

        def merge(db: sqlite3.Connection) -> int:
            tagged = 0
            for key, campaign, meta in entries:
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
                    for sql, params in self._record_statements(key, data):
                        _execute(db, sql, params)
                tagged += 1
            return tagged

        tagged = self._write(merge, None)
        if tagged is None:
            tagged = sum(1 for key, _c, _m in entries
                         if self.read_record(key) is not None)
        return tagged

    # -- counters ----------------------------------------------------------

    def bump_counters(self, deltas: Dict[str, int]) -> None:
        """Add counter deltas as upserts (exact under concurrency)."""
        deltas = {name: n for name, n in deltas.items() if n}
        if not deltas:
            return

        def bump(db: sqlite3.Connection) -> None:
            for name, n in sorted(deltas.items()):
                _execute(
                    db,
                    "INSERT INTO counters (name, value) VALUES (?, ?) "
                    "ON CONFLICT(name) DO UPDATE SET "
                    "value = value + excluded.value",
                    (name, n))

        self._write(bump, None)

    def counters(self) -> Dict[str, int]:
        """Fresh lifetime counter totals."""
        totals = {"puts": 0, "hits": 0, "misses": 0}
        for name, value in self._rows("SELECT name, value FROM counters"):
            totals[name] = int(value)
        return totals

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
        """Drop ledger entries (all of them, or just ``keys``)."""
        return self._ledger_drop("quarantine", keys)

    def leases(self) -> Dict[str, dict]:
        """Active distributed-execution leases: point key → entry."""
        return self._ledger("leases")

    def lease_update(self, key: str, entry: dict) -> None:
        """Record (or refresh) one point's lease (upsert)."""
        self._ledger_upsert("leases", key, entry)

    def lease_release(self, keys: Optional[Iterable[str]] = None) -> int:
        """Drop leases (all of them, or just ``keys``)."""
        return self._ledger_drop("leases", keys)

    # -- campaign checkpoints ----------------------------------------------

    def write_checkpoint(self, campaign: str, payload: dict) -> bool:
        """Publish one campaign's checkpoint (upsert)."""
        def publish(db: sqlite3.Connection) -> bool:
            _execute(
                db,
                "INSERT INTO checkpoints (campaign, payload) "
                "VALUES (?, ?) ON CONFLICT(campaign) DO UPDATE SET "
                "payload = excluded.payload",
                (campaign, json.dumps(payload, sort_keys=True)))
            return True

        return self._write(publish, False)

    def read_checkpoint(self, campaign: str) -> Optional[dict]:
        """One campaign's checkpoint, if present and parsable."""
        rows = self._rows(
            "SELECT payload FROM checkpoints WHERE campaign = ?",
            (campaign,))
        if not rows:
            return None
        try:
            data = json.loads(rows[0][0])
        except ValueError as exc:
            warnings.warn(
                f"unreadable checkpoint for campaign {campaign!r}: {exc}",
                ResultStoreWarning, stacklevel=3,
            )
            return None
        return data if isinstance(data, dict) else None

    def checkpoints(self) -> Dict[str, dict]:
        """Every parsable checkpoint, by campaign name."""
        out: Dict[str, dict] = {}
        for campaign, _payload in self._rows(
                "SELECT campaign, payload FROM checkpoints "
                "ORDER BY campaign"):
            data = self.read_checkpoint(campaign)
            if data is not None:
                out[campaign] = data
        return out

    # -- inspection --------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All record keys present (any schema), sorted."""
        return iter([key for (key,) in self._rows(
            "SELECT key FROM records ORDER BY key")])

    def records(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every usable current-schema record."""
        for key, text in self._rows(
                "SELECT key, record FROM records ORDER BY key"):
            data = self._parse(key, text)
            if data is not None and data.get("schema") == SCHEMA_VERSION:
                yield key, data

    def dump(self) -> Iterator[Tuple[str, dict]]:
        """(key, document) for every parsable record, any schema."""
        for key, text in self._rows(
                "SELECT key, record FROM records ORDER BY key"):
            data = self._parse(key, text)
            if data is not None:
                yield key, data

    def campaign_keys(self, campaign: str) -> List[str]:
        """Sorted keys of one campaign's records (indexed lookup)."""
        return [key for (key,) in self._rows(
            "SELECT key FROM tags WHERE campaign = ? ORDER BY key",
            (campaign,))]

    def stats_counts(self) -> Dict[str, int]:
        """Record/stale counts plus record-text bytes (SQL aggregates)."""
        rows = self._rows(
            "SELECT COUNT(*), "
            "COALESCE(SUM(schema = ?), 0), "
            "COALESCE(SUM(LENGTH(record)), 0) FROM records",
            (SCHEMA_VERSION,))
        total, current, nbytes = rows[0] if rows else (0, 0, 0)
        return {"records": int(current),
                "stale_records": int(total) - int(current),
                "bytes": int(nbytes)}

    def verify(self, gc: bool = False) -> VerifyReport:
        """Fsck every record row; optionally sweep the failing ones.

        Applies :func:`verify_record` to every row; the metadata check
        is SQLite's own ``PRAGMA quick_check``.
        """
        report = VerifyReport()
        try:
            check = self._retry(lambda: _execute(
                self._db(), "PRAGMA quick_check").fetchone())
            report.meta_ok = bool(check) and check[0] == "ok"
        except (sqlite3.Error, OSError):
            report.meta_ok = False
        failing: List[str] = []
        for key, text in self._rows(
                "SELECT key, record FROM records ORDER BY key"):
            report.checked += 1
            try:
                data = json.loads(text)
            except ValueError as exc:
                problem: Optional[str] = f"unparsable: {exc}"
            else:
                problem = verify_record(key, data)
            if problem is None:
                report.ok += 1
                continue
            report.problems.append(VerifyProblem(
                path=self.location, key=key, problem=problem))
            failing.append(key)
        if gc and failing:
            report.swept = self._delete_keys(failing)
        return report

    def _delete_keys(self, keys: List[str]) -> int:
        """Drop record rows (and their tag index rows); returns count."""
        def drop(db: sqlite3.Connection) -> int:
            removed = 0
            for key in keys:
                cursor = _execute(
                    db, "DELETE FROM records WHERE key = ?", (key,))
                removed += cursor.rowcount
                _execute(db, "DELETE FROM tags WHERE key = ?", (key,))
            return removed

        return self._write(drop, 0)

    def gc(self, remove_all: bool = False) -> int:
        """Remove stale (or, with ``remove_all``, every) record row."""
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
        return self._delete_keys(stale)


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
