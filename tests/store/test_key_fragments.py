"""Store keys from memoized fragments equal the unmemoized derivation.

:func:`point_key` splices per-object fragments instead of
canonicalizing the whole key document. The oracle here is the
derivation as it stood before that change, copied verbatim
(``oracle_canonical`` / ``oracle_components``), so the check does not
trust any code it tests. Generated configs, clusters, jobconfs, cost
models and fault plans include value-equal components with different
spellings (``2`` vs ``2.0``, ``0.0`` vs ``-0.0``), fed in both orders:
an identity memo must never hand one spelling the other's fragment.

``tests/data/store_key_pins.json`` additionally pins the ordered keys
of three fixed point sets, under both ``PYTHONHASHSEED`` values.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan, LinkFault, NodeCrash, SlowNode
from repro.hadoop.cluster import ClusterSpec, NodeSpec, cluster_a
from repro.hadoop.costmodel import CostModel
from repro.hadoop.job import JobConf
from repro.net.interconnect import get_interconnect
from repro.store import canonical_json, point_components, point_key

from tests.store.key_pins import keys_of, point_sets

PINS_PATH = Path(__file__).parent.parent / "data" / "store_key_pins.json"


# -- the oracle: the derivation before fragment memoization ----------------

def oracle_canonical(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = oracle_canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): oracle_canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(type(obj).__name__)


def oracle_components(config, cluster, jobconf=None, cost_model=None,
                      fault_plan=None, schema_version=1):
    parts = oracle_canonical(config)
    parts["network"] = get_interconnect(config.network).name
    return {
        "schema": schema_version,
        "config": parts,
        "cluster": oracle_canonical(cluster),
        "jobconf": oracle_canonical(jobconf),
        "cost_model": oracle_canonical(cost_model),
        "fault_plan": oracle_canonical(fault_plan),
    }


def oracle_key(*args, **kwargs):
    text = json.dumps(oracle_canonical(oracle_components(*args, **kwargs)),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- generated components --------------------------------------------------

def spelled(values):
    """Each value as an int and as a float (the memo must keep both)."""
    return st.sampled_from(values).flatmap(
        lambda v: st.sampled_from([v, float(v)]))


configs = st.builds(
    BenchmarkConfig,
    pattern=st.sampled_from(["avg", "rand", "skew"]),
    key_size=spelled([1, 256, 512]),
    value_size=spelled([0, 256, 512]),
    num_pairs=spelled([1, 1000, 123457]),
    num_maps=spelled([1, 4, 16]),
    num_reduces=spelled([1, 2, 8]),
    network=st.sampled_from(["1GigE", "10GigE", "ipoib-qdr",
                             "IPoIB-QDR(32Gbps)", "rdma"]),
    seed=spelled([0, 7, 20140901]),
)
nodes = st.builds(
    NodeSpec,
    cores=spelled([1, 8, 16]),
    clock_ghz=st.sampled_from([2.67, 2.7, 3]),
    ram_bytes=st.sampled_from([24e9, 32e9, 2**34]),
    disks=spelled([1, 2]),
    disk_bandwidth=st.sampled_from([1.2e8, 110e6, 120000000]),
    page_cache_fraction=st.sampled_from([0, 0.0, -0.0, 0.5, 1, 1.0]),
)
clusters = st.builds(
    ClusterSpec,
    name=st.sampled_from(["ClusterA-Westmere", "cé", "x\ny"]),
    node=nodes,
    num_slaves=spelled([1, 2, 4]),
    racks=spelled([1, 2]),
    rack_oversubscription=st.sampled_from([1, 1.0, 2.5]),
)
jobconfs = st.one_of(st.none(), st.builds(
    JobConf,
    version=st.sampled_from(["mrv1", "yarn"]),
    sort_factor=spelled([2, 10]),
    parallel_copies=spelled([1, 5]),
    reduce_slowstart=st.sampled_from([0, 0.0, -0.0, 0.05, 1]),
    map_slots_per_node=st.sampled_from([None, 2, 2.0]),
    speculative_execution=st.booleans(),
))
cost_models = st.one_of(st.none(), st.builds(
    CostModel,
    base_clock_ghz=st.sampled_from([2.67, 3, 3.0]),
    map_task_start=st.sampled_from([2.5, 2, 2.0, 0, -0.0]),
))
fault_plans = st.one_of(st.none(), st.builds(
    FaultPlan,
    seed=spelled([1, 20140901]),
    task_failure_probability=st.sampled_from([0, 0.0, -0.0, 0.25]),
    fetch_failure_probability=st.sampled_from([0, 0.0, 0.1]),
    node_crashes=st.sampled_from([
        (), (NodeCrash("slave1", at_time=5),),
        (NodeCrash("slave1", at_time=5.0),),
        (NodeCrash("slave0", after_tasks=2),)]),
    slow_nodes=st.sampled_from([(), (SlowNode("slave0", cpu_factor=2),),
                                (SlowNode("slave0", cpu_factor=2.0),)]),
    link_faults=st.sampled_from([(), (LinkFault("slave1", factor=0.5),)]),
))
points = st.tuples(configs, clusters, jobconfs, cost_models, fault_plans)


def check(config, cluster, jobconf, cost_model, plan):
    """Key and components equal the oracle's."""
    kwargs = dict(jobconf=jobconf, cost_model=cost_model, fault_plan=plan)
    assert point_key(config, cluster, **kwargs) == oracle_key(
        config, cluster, **kwargs)
    components = point_components(config, cluster, **kwargs)
    expected = oracle_components(config, cluster, **kwargs)
    assert components == expected
    assert canonical_json(components) == canonical_json(expected)


@settings(max_examples=200, deadline=None)
@given(points)
def test_point_key_matches_the_oracle(point):
    check(*point)
    check(*point)  # the second derivation is served from the memo


@settings(max_examples=100, deadline=None)
@given(points, points)
def test_value_equal_spellings_keep_their_own_keys(first, second):
    """Both orders: whichever spelling is memoized first, each point
    still gets its own key."""
    for a, b in ((first, second), (second, first)):
        check(*a)
        check(*b)


def test_equal_components_with_different_spellings():
    node_int = dataclasses.replace(cluster_a(2).node, cores=8)
    node_float = dataclasses.replace(cluster_a(2).node, cores=8.0)
    assert node_int == node_float
    spellings = [
        (cluster_a(2), dataclasses.replace(cluster_a(2), num_slaves=2.0)),
        (dataclasses.replace(cluster_a(2), node=node_int),
         dataclasses.replace(cluster_a(2), node=node_float)),
    ]
    config = BenchmarkConfig.from_shuffle_size(2e7, num_maps=4,
                                               num_reduces=2)
    plans = (FaultPlan(fetch_failure_probability=0),
             FaultPlan(fetch_failure_probability=0.0))
    for a, b in spellings:
        assert a == b
        for first, second in ((a, b), (b, a)):
            key_first = point_key(config, first)
            key_second = point_key(config, second)
            assert key_first != key_second
            assert key_first == oracle_key(config, first)
            assert key_second == oracle_key(config, second)
    for first, second in (plans, plans[::-1]):
        assert (point_key(config, cluster_a(2), fault_plan=first)
                == oracle_key(config, cluster_a(2), fault_plan=first))
        assert (point_key(config, cluster_a(2), fault_plan=second)
                == oracle_key(config, cluster_a(2), fault_plan=second))


@dataclasses.dataclass
class MutableComponent:
    knob: float = 1.0


def test_mutable_components_are_never_memoized():
    config = BenchmarkConfig.from_shuffle_size(2e7, num_maps=4,
                                               num_reduces=2)
    component = MutableComponent()
    before = point_key(config, cluster_a(2), cost_model=component)
    component.knob = 2.0
    after = point_key(config, cluster_a(2), cost_model=component)
    assert before != after
    assert after == oracle_key(config, cluster_a(2), cost_model=component)


def test_point_components_returns_fresh_dicts():
    config = BenchmarkConfig.from_shuffle_size(2e7, num_maps=4,
                                               num_reduces=2)
    cluster = cluster_a(2)
    first = point_components(config, cluster)
    first["cluster"]["node"]["cores"] = -1
    first["cluster"]["name"] = "mutated"
    assert point_components(config, cluster) == oracle_components(
        config, cluster)
    assert point_key(config, cluster) == oracle_key(config, cluster)


def test_unserializable_components_still_raise():
    config = BenchmarkConfig.from_shuffle_size(2e7, num_maps=4,
                                               num_reduces=2)
    with pytest.raises(TypeError):
        point_key(config, cluster_a(2), cost_model=object())
    with pytest.raises(TypeError):
        point_components(config, object())


def test_every_pinned_point_matches_the_oracle():
    """Golden-40, the figure specs and trials-1000, key by key."""
    for name, points in point_sets().items():
        assert keys_of(points) == [
            oracle_key(config, cluster, jobconf=jobconf, fault_plan=plan)
            for config, cluster, jobconf, plan in points], name


@pytest.mark.parametrize("hash_seed", ["0", "31337"])
def test_store_keys_match_the_pins(hash_seed):
    """The ordered keys of golden-40, the figure specs and trials-1000
    hash to the pinned digests in a fresh interpreter."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    repo = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, repo, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.store.key_pins"],
        capture_output=True, text=True, env=env, cwd=repo, check=True)
    pins = json.loads(PINS_PATH.read_text())
    digests = json.loads(proc.stdout)
    for name in ("golden40", "figures", "trials1000"):
        assert digests[name] == pins[name], name
