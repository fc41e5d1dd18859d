"""Store-root fixtures and raw-tampering helpers for the store suite.

Most store tests run twice, once per way of naming a store, via the
``root_kind`` fixture:

* ``filesystem`` — a plain directory root, the way users name a store
  (``--store DIR``); the database lands at ``DIR/store.sqlite``;
* ``sqlite`` — an explicit ``sqlite:FILE`` root naming the database.

Both open the same backend, so the pair pins that root resolution
changes where the database lives and nothing else.

The raw-tampering helpers (``record_text`` / ``rewrite_record`` /
``break_writes`` / ``corrupt_checkpoint``) reach into the database the
way a buggy or interrupted writer would, so corruption and degradation
tests state the *contract* once.
"""

import json
import sqlite3

import pytest

from repro.store import ResultStore

#: The root spellings every parity test must pass on.
ROOT_KINDS = ("filesystem", "sqlite")


@pytest.fixture(params=ROOT_KINDS)
def root_kind(request):
    """Parameterizes a test over both root spellings."""
    return request.param


def store_root(tmp_path, root_kind, name="store"):
    """A store root string of one spelling under ``tmp_path``."""
    if root_kind == "sqlite":
        return f"sqlite:{tmp_path / (name + '.sqlite')}"
    return str(tmp_path / name)


@pytest.fixture
def make_store(tmp_path, root_kind):
    """Factory for stores of the current root spelling under ``tmp_path``."""
    def make(name="store"):
        return ResultStore(store_root(tmp_path, root_kind, name))
    return make


@pytest.fixture
def store_root_str(tmp_path, root_kind):
    """One ready-made root string of the current spelling."""
    return store_root(tmp_path, root_kind)


def record_text(store, key):
    """The raw stored text of one record."""
    rows = store._db().execute(
        "SELECT record FROM records WHERE key = ?", (key,)).fetchall()
    return rows[0][0]


def load_record(store, key):
    """One record parsed from its raw stored text."""
    return json.loads(record_text(store, key))


def record_texts(root):
    """Key -> stored record text of every record under one root."""
    store = ResultStore(root)
    try:
        return dict(store._db().execute(
            "SELECT key, record FROM records ORDER BY key").fetchall())
    finally:
        store.close()


def rewrite_record(store, key, text):
    """Overwrite one record's raw stored text (simulates corruption).

    Mirrors what a real (possibly buggy or interrupted) writer would
    leave behind: the bytes in the record column, with the schema index
    column kept consistent, as any real writer would.
    """
    try:
        schema = json.loads(text).get("schema")
    except (ValueError, AttributeError):
        schema = None
    db = store._db()
    with db:
        db.execute(
            "INSERT INTO records (key, schema, record) VALUES (?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET schema = excluded.schema, "
            "record = excluded.record",
            (key, schema, text))


def break_writes(monkeypatch):
    """Make every store write fail like a full disk.

    As root, chmod tricks can't produce EACCES, so the ``_execute``
    statement funnel is patched instead (non-SELECT statements only).
    """
    import repro.store.store as store_mod

    real_execute = store_mod._execute

    def failing_execute(db, sql, params=()):
        head = sql.lstrip().split(None, 1)[0].upper()
        if head in ("SELECT", "PRAGMA"):
            return real_execute(db, sql, params)
        raise sqlite3.OperationalError("database or disk is full")

    monkeypatch.setattr(store_mod, "_execute", failing_execute)


def corrupt_checkpoint(store, campaign):
    """Leave one campaign's checkpoint unparsable."""
    db = store._db()
    with db:
        db.execute(
            "INSERT INTO checkpoints (campaign, payload) VALUES (?, ?) "
            "ON CONFLICT(campaign) DO UPDATE SET payload = excluded.payload",
            (campaign, "{ nope"))


def corrupt_metadata(store):
    """Corrupt the database header."""
    # Fold the WAL back into the main file first, or a fresh reader
    # would transparently recover page 1 from it and mask the damage.
    store._db().execute("PRAGMA wal_checkpoint(TRUNCATE)")
    store.close()
    with open(store.location, "r+b") as handle:
        handle.write(b"this is not a sqlite database header")
    for suffix in ("-wal", "-shm"):
        sidecar = store.location.with_name(store.location.name + suffix)
        if sidecar.exists():
            sidecar.unlink()
