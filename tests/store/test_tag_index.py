"""The tag pass answers from the ``tags`` index, exactly.

``ResultStore.tag``/``tag_many`` look each entry up in the ``tags``
index before reading its record, and count a current record whose row
already holds an equal meta as tagged without reading or rewriting it.
The contract is exactness against the read-merge-rewrite loop it
short-cuts, kept here verbatim as the oracle (:func:`oracle_update_tags`):
return values, warnings, record bytes and index rows all match, case by
case and over generated operation sequences. A guard pins that a pass
over already-tagged records reads no record text and writes no record.

Puts keep the tags other campaigns stored (``TestPutKeepsTags``): the
index can only be trusted if no writer silently drops rows from it.
"""

import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store as store_mod
from repro.core.config import BenchmarkConfig
from repro.core.suite import MicroBenchmarkSuite
from repro.hadoop.cluster import cluster_a
from repro.store import SCHEMA_VERSION, ResultStore, StoredResult

from tests.store.conftest import break_writes, load_record, rewrite_record

A, B, C = "aa" * 32, "bb" * 32, "cc" * 32
M0, M1 = {"trial": 0}, {"trial": 1}


def oracle_update_tags(store, entries):
    """The tag body as it was before the index lookup, verbatim: every
    entry reads, parses and (when the tag differs) rewrites its record."""
    entries = list(entries)
    if not entries:
        return 0

    def merge(db):
        tagged = 0
        for key, campaign, meta in entries:
            row = store_mod._execute(
                db, "SELECT record FROM records WHERE key = ?",
                (key,)).fetchone()
            if row is None:
                continue
            data = store._parse(key, row[0])
            if data is None or data.get("schema") != SCHEMA_VERSION:
                continue
            tags = data.setdefault("tags", {})
            if tags.get(campaign) != (meta or {}):
                tags[campaign] = meta or {}
                store._publish(db, key, data)
            tagged += 1
        return tagged

    tagged = store._write(merge, None)
    if tagged is None:
        tagged = sum(1 for key, _c, _m in entries
                     if store._read_record(key) is not None)
    return tagged


@pytest.fixture(scope="module")
def stored():
    """One real (tiny) simulation result to store."""
    config = BenchmarkConfig.from_shuffle_size(
        2e7, pattern="avg", network="1GigE", num_maps=4, num_reduces=2,
        key_size=256, value_size=256)
    result = MicroBenchmarkSuite(cluster=cluster_a(2)).run_config(
        config, memoize=False)
    return StoredResult.from_sim_result(result)


def snapshot(store):
    """Every record row, tag row and counter of one store."""
    db = store._db()
    return {
        "records": db.execute("SELECT key, schema, record FROM records "
                              "ORDER BY key").fetchall(),
        "tags": db.execute("SELECT key, campaign, meta FROM tags "
                           "ORDER BY key, campaign").fetchall(),
        "counters": store.counters(),
    }


def recorded(store, call):
    """``call()``'s return value and the warnings it raised (with the
    store's own path taken out, so two stores compare)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return value, [(w.category, str(w.message).replace(
        str(store.location), "STORE")) for w in caught]


def parsable(store, key):
    """Whether one record row exists and holds a JSON object."""
    try:
        return isinstance(load_record(store, key), dict)
    except (IndexError, ValueError):
        return False


def reput_without_tags(store, key):
    """Replace one record by a verbatim copy whose tags are gone (the
    raw copy ``migrate`` makes), dropping its index rows."""
    record = load_record(store, key)
    record["tags"] = {}
    store.write_records([(key, record)])


def stale(store, key):
    """Give one record a schema other than the current one."""
    record = load_record(store, key)
    record["schema"] = 999
    rewrite_record(store, key, json.dumps(record))


def seeded(case_seed, stored):
    """A store function that writes ``case_seed``'s records."""
    def seed(store):
        for key, tags in case_seed.get("put", ()):
            store.put(key, stored, None, tags)
        for key in case_seed.get("reput", ()):
            reput_without_tags(store, key)
        for key in case_seed.get("corrupt", ()):
            rewrite_record(store, key, "{ not json")
        for key in case_seed.get("stale", ()):
            stale(store, key)
    return seed


#: name -> (seed, tag entries). Every seeded record is first put tagged
#: where the case says so, then damaged or re-put as named.
CASES = {
    "equal meta": ({"put": [(A, {"c": M0})]}, [(A, "c", M0)]),
    "different meta": ({"put": [(A, {"c": M0})]}, [(A, "c", M1)]),
    "int stored, float asked": (
        {"put": [(A, {"c": {"trial": 0}})]}, [(A, "c", {"trial": 0.0})]),
    "float stored, int asked": (
        {"put": [(A, {"c": {"trial": 0.0}})]}, [(A, "c", {"trial": 0})]),
    "meta None, tagged": ({"put": [(A, {"c": None})]}, [(A, "c", None)]),
    "meta None, untagged": ({"put": [(A, None)]}, [(A, "c", None)]),
    "missing record": ({"put": [(A, {"c": M0})]},
                       [(B, "c", M0), (A, "c", M0)]),
    "corrupt record": ({"put": [(A, {"c": M0})], "corrupt": [A]},
                       [(A, "c", M0)]),
    "stale record": ({"put": [(A, {"c": M0})], "stale": [A]},
                     [(A, "c", M0)]),
    "two campaigns in one call": (
        {"put": [(A, {"c": M0}), (B, None)]},
        [(A, "c", M0), (A, "d", M1), (B, "c", M0), (B, "d", M1)]),
    "same key twice, m1 then the original m0": (
        {"put": [(A, {"c": M0})]}, [(A, "c", M1), (A, "c", M0)]),
    "tag dropped by a verbatim re-put": (
        {"put": [(A, {"c": M0})], "reput": [A]}, [(A, "c", M0)]),
    "meta replaced by a re-put": (
        {"put": [(A, {"c": M0}), (A, {"c": M1})]}, [(A, "c", M0)]),
    "mixed": ({"put": [(A, {"c": M0}), (B, {"c": M1}), (C, None)],
               "stale": [C]},
              [(A, "c", M0), (B, "c", M0), (C, "c", M0), (A, "d", None)]),
}


class TestTagPassMatchesTheOracle:
    """``tag_many`` and ``tag`` against the read-merge-rewrite loop."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tag_many(self, tmp_path, stored, case):
        case_seed, entries = CASES[case]
        seed = seeded(case_seed, stored)
        oracle, change = (ResultStore(tmp_path / "oracle"),
                          ResultStore(tmp_path / "change"))
        seed(oracle)
        seed(change)
        assert snapshot(oracle) == snapshot(change)
        expected = recorded(oracle,
                            lambda: oracle_update_tags(oracle, entries))
        assert recorded(change, lambda: change.tag_many(entries)) == expected
        assert snapshot(change) == snapshot(oracle)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tag(self, tmp_path, stored, case):
        case_seed, entries = CASES[case]
        seed = seeded(case_seed, stored)
        oracle, change = (ResultStore(tmp_path / "oracle"),
                          ResultStore(tmp_path / "change"))
        seed(oracle)
        seed(change)
        expected = recorded(oracle, lambda: [
            oracle_update_tags(oracle, [entry]) == 1 for entry in entries])
        assert recorded(change, lambda: [
            change.tag(*entry) for entry in entries]) == expected
        assert snapshot(change) == snapshot(oracle)

    def test_degraded_store_counts_like_the_oracle(self, tmp_path, stored,
                                                   monkeypatch):
        """A store whose writes fail counts the readable records."""
        case_seed, entries = CASES["mixed"]
        oracle, change = (ResultStore(tmp_path / "oracle"),
                          ResultStore(tmp_path / "change"))
        seeded(case_seed, stored)(oracle)
        seeded(case_seed, stored)(change)
        break_writes(monkeypatch)
        expected = recorded(oracle,
                            lambda: oracle_update_tags(oracle, entries))
        assert recorded(change, lambda: change.tag_many(entries)) == expected
        assert snapshot(change) == snapshot(oracle)


KEYS = (A, B, C)
CAMPAIGNS = ("c", "d")
METAS = (None, {}, {"trial": 0}, {"trial": 0.0}, {"trial": 1})

operations = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS),
              st.one_of(st.none(), st.dictionaries(
                  st.sampled_from(CAMPAIGNS), st.sampled_from(METAS),
                  max_size=2))),
    st.tuples(st.just("tag"), st.lists(st.tuples(
        st.sampled_from(KEYS), st.sampled_from(CAMPAIGNS),
        st.sampled_from(METAS)), max_size=4)),
    st.tuples(st.just("reput"), st.sampled_from(KEYS)),
    st.tuples(st.just("corrupt"), st.sampled_from(KEYS)),
    st.tuples(st.just("stale"), st.sampled_from(KEYS)),
)


class TestGeneratedSequences:
    """Random puts, re-puts, damage and tag passes, applied to two
    stores that differ only in their tag body, never diverge."""

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(operations, min_size=1, max_size=8))
    def test_sequences_never_diverge(self, stored, steps):
        with tempfile.TemporaryDirectory() as tmp:
            oracle = ResultStore(Path(tmp) / "oracle")
            change = ResultStore(Path(tmp) / "change")
            for step in steps:
                kind, arg = step[0], step[1]
                if kind == "tag":
                    expected = recorded(
                        oracle, lambda: oracle_update_tags(oracle, arg))
                    assert recorded(
                        change, lambda: change.tag_many(arg)) == expected
                else:
                    for store in (oracle, change):
                        if kind == "put":
                            store.put(arg, stored, None, step[2])
                        elif parsable(store, arg):
                            {"reput": reput_without_tags,
                             "corrupt": lambda s, k: rewrite_record(
                                 s, k, "{ not json"),
                             "stale": stale}[kind](store, arg)
                assert snapshot(change) == snapshot(oracle)
            oracle.close()
            change.close()


class TestNoRecordIsReadWhenTagged:
    """A pass over already-tagged current records is index lookups only."""

    N = 20

    def test_no_record_read_and_no_record_write(self, tmp_path, stored,
                                                monkeypatch):
        store = ResultStore(tmp_path / "store")
        keys = [f"{i:02x}" * 32 for i in range(self.N)]
        store.put_many([(key, stored, None, {"camp": {"trial": i}})
                        for i, key in enumerate(keys)])
        before = snapshot(store)
        statements = []
        real_execute = store_mod._execute

        def spy(db, sql, params=()):
            statements.append(sql)
            return real_execute(db, sql, params)

        monkeypatch.setattr(store_mod, "_execute", spy)
        entries = [(key, "camp", {"trial": float(i)})
                   for i, key in enumerate(keys)]
        assert store.tag_many(entries) == self.N
        monkeypatch.undo()
        reads = [sql for sql in statements
                 if re.search(r"\brecord\b", sql)
                 and sql.lstrip().upper().startswith("SELECT")]
        writes = [sql for sql in statements
                  if sql.lstrip().upper().startswith("INSERT INTO RECORDS")]
        assert reads == [] and writes == []
        assert sum("JOIN records" in sql for sql in statements) == self.N
        assert snapshot(store) == before


class TestPutKeepsTags:
    """A put that replaces a record carries the tags stored on it."""

    def test_reput_without_tags_keeps_the_stored_tags(self, tmp_path,
                                                      stored):
        store = ResultStore(tmp_path / "store")
        store.put(A, stored, None, {"camp-a": M0})
        store.put(A, stored)
        assert load_record(store, A)["tags"] == {"camp-a": M0}
        assert store.campaign_keys("camp-a") == [A]
        assert store.verify().clean

    def test_the_putting_campaigns_meta_wins(self, tmp_path, stored):
        store = ResultStore(tmp_path / "store")
        store.put(A, stored, None, {"camp-a": M0, "camp-b": M0})
        store.put_many([(A, stored, None, {"camp-a": M1}),
                        (B, stored, None, {"camp-a": M1})])
        assert load_record(store, A)["tags"] == {"camp-a": M1,
                                                 "camp-b": M0}
        assert load_record(store, B)["tags"] == {"camp-a": M1}
        assert store.campaign_keys("camp-b") == [A]
        assert store.verify().clean

    def test_reput_bytes_equal_a_put_then_tag(self, tmp_path, stored):
        """Carrying tags writes what tagging the fresh record would."""
        carried = ResultStore(tmp_path / "carried")
        carried.put(A, stored, {"point": 1}, {"camp-a": M0})
        carried.put(A, stored, {"point": 1}, {"camp-b": M1})
        tagged = ResultStore(tmp_path / "tagged")
        tagged.put(A, stored, {"point": 1}, {"camp-b": M1})
        tagged.tag(A, "camp-a", M0)
        assert snapshot(carried)["records"] == snapshot(tagged)["records"]
        assert snapshot(carried)["tags"] == snapshot(tagged)["tags"]
