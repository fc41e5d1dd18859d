"""Record text: ``dump_record_text`` is exactly the stdlib's indented dump.

The oracle is ``json.dumps(x, indent=1, sort_keys=True)`` itself — the
serializer every record was written with before the fast path — and
every check compares with ``==``. Generated trees cover deep nesting,
empty containers, escapes, non-ASCII and newline strings, NaN, ±inf,
-0.0, bool/int/float spellings and non-str keys (which must take the
stdlib path). Sub-documents are repeated at several depths, so the
sub-document memo serves hits at a depth other than the one that
filled it.
"""

import json
import math
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Campaign, run_campaign
from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan, NodeCrash, SlowNode
from repro.core.suite import clear_result_cache
from repro.hadoop.cluster import cluster_a
from repro.store import ResultStore, dump_record_text, point_key
from repro.store import backend as backend_mod
from repro.store import keys as keys_mod

from tests.store.conftest import record_text
from tests.store.key_pins import trials_campaign
from tests.store.test_key_fragments import oracle_key


def oracle(obj):
    """The stdlib serialization every record text must equal."""
    return json.dumps(obj, indent=1, sort_keys=True)


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, False, 1e300, -1e-300,
                     math.inf, -math.inf, math.nan]),
    st.text(max_size=12),
    st.sampled_from(["", "\n", "a\nb", "\"quoted\"", "back\\slash",
                     "tab\there", "café", "☃\U0001f600",
                     "\x00\x1f\x7f", "</script>"]),
)
str_keys = st.one_of(st.text(max_size=8),
                     st.sampled_from(["", "\n", "ké", "a", "b"]))
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(str_keys, children, max_size=5),
    ),
    max_leaves=40,
)


@st.composite
def records(draw):
    """A record-shaped tree that nests one sub-document at depths 1-4."""
    sub = draw(trees)
    shared = {"a": sub, "b": [sub, {"c": sub}], "flat": draw(
        st.dictionaries(str_keys, scalars, max_size=4))}
    doc = {"key": draw(st.text(max_size=8)), "one": sub,
           "two": {"sub": sub, "nested": {"deeper": [shared, sub]}},
           "shared": shared}
    return draw(st.sampled_from([doc, shared, [doc, doc], sub]))


@settings(max_examples=300, deadline=None)
@given(records())
def test_generated_trees_match_the_stdlib(tree):
    assert dump_record_text(tree) == oracle(tree)
    # A second pass is served from the memo; it must be equally exact.
    assert dump_record_text(tree) == oracle(tree)


@settings(max_examples=100, deadline=None)
@given(trees, st.integers(min_value=0, max_value=5))
def test_a_memo_hit_moves_to_any_depth(sub, depth):
    """Fill the memo at one depth, then hit it at another."""
    wrapped = {"x": {"y": sub}}
    for _ in range(depth):
        wrapped = {"w": [wrapped]}
    assert dump_record_text({"p": {"q": sub}}) == oracle({"p": {"q": sub}})
    assert dump_record_text(wrapped) == oracle(wrapped)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(),
              st.none()), scalars, min_size=1, max_size=4))
def test_non_str_keys_take_the_stdlib_path(mapping):
    for tree in ({"deep": {"deeper": mapping}}, mapping, [mapping]):
        try:
            expected = oracle(tree)
        except TypeError:  # unorderable mixed keys: both must raise
            try:
                dump_record_text(tree)
            except TypeError:
                continue
            raise AssertionError("fast path accepted unorderable keys")
        assert dump_record_text(tree) == expected


def test_value_spellings_stay_distinct_in_the_memo():
    """Value-equal sub-documents (1 == 1.0 == True, 0.0 == -0.0) are
    distinct memo entries, so each keeps its own spelling."""
    spellings = [1, 1.0, True, 0.0, -0.0, 0, False]
    for value in spellings + spellings[::-1]:
        doc = {"a": {"b": {"c": {"v": value, "l": [value]}}}}
        assert dump_record_text(doc) == oracle(doc)


def test_non_json_values_raise_like_the_stdlib():
    for bad in ({"a": {1, 2}}, {"a": {"b": {"c": object()}}},
                {"a": {"b": [bytes(2)]}}):
        try:
            oracle(bad)
        except TypeError as exc:
            expected = str(exc)
        try:
            dump_record_text(bad)
        except TypeError as exc:
            assert str(exc) == expected
        else:
            raise AssertionError("non-JSON value serialized")


def test_cycles_raise_like_the_stdlib():
    loop = {"a": {"b": {}}}
    loop["a"]["b"]["c"] = loop
    for fn in (oracle, dump_record_text):
        try:
            fn(loop)
        except ValueError as exc:
            assert "Circular reference" in str(exc)
        else:
            raise AssertionError("cycle serialized")


def test_memo_stays_within_its_byte_bound(monkeypatch):
    monkeypatch.setattr(backend_mod, "SUBDOC_MEMO_BYTES", 4096)
    monkeypatch.setattr(backend_mod, "_SUBDOCS", {})
    monkeypatch.setattr(backend_mod, "_subdoc_bytes", 0)
    for i in range(200):
        doc = {"a": {"b": {"c": [i, {"d": "x" * (i % 50)}]}}}
        assert dump_record_text(doc) == oracle(doc)
        held = sum(len(k) + len(v) for k, v in backend_mod._SUBDOCS.items())
        assert held <= 4096


def test_every_trials_record_matches_the_stdlib(tmp_path):
    """All 1000 records of a trials store: stored text and re-dump."""
    clear_result_cache()
    store = ResultStore(f"sqlite:{tmp_path / 'trials.sqlite'}")
    result = run_campaign(trials_campaign(), store=store)
    assert result.executed == 1000 and result.unique_simulations == 25
    db = store._db()
    rows = db.execute("SELECT key, record FROM records").fetchall()
    assert len(rows) == 1000
    for key, text in rows:
        record = json.loads(text)
        assert record["key"] == key
        assert text == oracle(record)
        assert dump_record_text(record) == text
    assert store.verify().clean
    store.close()
    clear_result_cache()


def test_every_faulted_campaign_record_matches_the_stdlib(make_store):
    """A campaign under a fault plan, on each root spelling: the records
    carry a non-flat ``fault_plan`` sub-document and a ``resilience``
    block."""
    clear_result_cache()
    plan = FaultPlan(seed=3, fetch_failure_probability=0.1,
                     node_crashes=(NodeCrash("slave1", at_time=1.0),),
                     slow_nodes=(SlowNode("slave0", cpu_factor=2.0),))
    campaign = Campaign(
        name="faulted", shuffle_gbs=(0.02, 0.04), networks=("1GigE",),
        trials=2, slaves=2, fault_plan=plan,
        params={"num_maps": 4, "num_reduces": 2,
                "key_size": 256, "value_size": 256})
    store = make_store()
    assert run_campaign(campaign, store=store).executed == 4
    records = list(store.records())
    assert len(records) == 4
    for key, record in records:
        assert record["provenance"]["fault_plan"]["__type__"] == "FaultPlan"
        text = record_text(store, key)
        assert text == oracle(record)
        assert dump_record_text(record) == text
    clear_result_cache()


def test_memos_under_concurrent_threads(monkeypatch):
    """Eight threads (more than cores) share both memos, with bounds
    small enough to force clears mid-run and a short switch interval:
    every text and key still equals its oracle, and the sub-document
    memo never holds more than its bound."""
    monkeypatch.setattr(backend_mod, "SUBDOC_MEMO_BYTES", 2048)
    monkeypatch.setattr(backend_mod, "_SUBDOCS", {})
    monkeypatch.setattr(backend_mod, "_subdoc_bytes", 0)
    monkeypatch.setattr(keys_mod, "FRAGMENT_MEMO_LIMIT", 4)
    monkeypatch.setattr(keys_mod, "_FRAGMENTS", {})
    clusters = [cluster_a(n) for n in (1, 2, 3, 4, 2)]
    configs = [BenchmarkConfig.from_shuffle_size(2e7, seed=seed)
               for seed in (7, 7.0, 8)]
    expected_keys = {(id(config), id(cluster)): oracle_key(config, cluster)
                     for config in configs for cluster in clusters}
    docs = [{"a": {"b": {"c": [i % 7, {"d": "x" * (i % 13), "e": -0.0}]}},
             "f": [{"g": [i % 3, 1.0]}]} for i in range(400)]
    errors = []
    barrier = threading.Barrier(8)

    def hammer(worker_id):
        barrier.wait()
        try:
            for i in range(600):
                doc = docs[(worker_id * 7 + i) % len(docs)]
                assert dump_record_text(doc) == oracle(doc)
                cluster = clusters[i % len(clusters)]
                config = configs[(worker_id + i) % len(configs)]
                assert (point_key(config, cluster)
                        == expected_keys[id(config), id(cluster)])
                held = sum(len(k) + len(v)
                           for k, v in list(backend_mod._SUBDOCS.items()))
                assert held <= 2048
        except Exception as exc:  # collected, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert backend_mod._subdoc_bytes == sum(
        len(k) + len(v) for k, v in backend_mod._SUBDOCS.items())
