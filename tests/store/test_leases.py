"""Lease-ledger contract tests, run against both root spellings.

The lease ledger is the distributed pool's liveness bookkeeping: while
a ``PoolBackend`` coordinator has a unit out on a worker, the store
records who holds it and until when; completion, failure, abandonment
or worker loss releases it. The ledger mirrors the quarantine ledger's
shape (key → entry dict) and, like it, is advisory metadata — records
are never touched through it.
"""

import pytest

from repro.store import ResultStore, migrate_store

from tests.store.conftest import store_root


@pytest.fixture
def root(tmp_path, root_kind):
    return store_root(tmp_path, root_kind)


@pytest.fixture
def store(root):
    return ResultStore(root)


ENTRY = {"campaign": "c", "label": "1GB 1GigE", "worker": "host:1",
         "attempt": 1, "dispatch": 0, "acquired_at": 1.0,
         "expires_at": 16.0}


class TestLeaseLedger:
    def test_empty_by_default(self, store):
        assert store.leases() == {}
        assert store.stats()["leases"] == 0

    def test_update_read_release_roundtrip(self, store):
        store.lease_update("k1", ENTRY)
        store.lease_update("k2", dict(ENTRY, worker="host:2"))
        leases = store.leases()
        assert set(leases) == {"k1", "k2"}
        assert leases["k1"] == ENTRY
        assert store.stats()["leases"] == 2

        # Renewal overwrites in place (same key, fresher expiry).
        store.lease_update("k1", dict(ENTRY, expires_at=31.0))
        assert store.leases()["k1"]["expires_at"] == 31.0

        assert store.lease_release(["k1"]) == 1
        assert set(store.leases()) == {"k2"}
        assert store.lease_release(["nope"]) == 0

    def test_release_all(self, store):
        store.lease_update("k1", ENTRY)
        store.lease_update("k2", ENTRY)
        assert store.lease_release() == 2
        assert store.leases() == {}

    def test_survives_reopen(self, store, root):
        store.lease_update("k1", ENTRY)
        store.close()
        assert ResultStore(root).leases() == {"k1": ENTRY}

    def test_migrate_copies_leases(self, tmp_path, root_kind):
        src_root = store_root(tmp_path, root_kind, "src")
        ResultStore(src_root).lease_update("k1", ENTRY)
        other = ("sqlite" if root_kind == "filesystem"
                 else "filesystem")
        dst_root = store_root(tmp_path, other, "dst")
        report = migrate_store(src_root, dst_root)
        assert report.leases == 1
        assert "leases" in report.render()
        assert ResultStore(dst_root).leases() == {"k1": ENTRY}
