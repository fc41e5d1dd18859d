"""Bit-exact equivalence of the grouped/incremental solver vs the
reference water-filling solver.

Three layers:

* property tests — random fabric-shaped flow sets: the grouped solver's
  rates equal the reference's with ``==``, not approx;
* fabric level — identical workloads on ``solver="reference"`` vs
  ``solver="incremental"`` fabrics produce bit-equal completion times
  (this also exercises the private-links change-point skip);
* suite level — parallel sweeps (``jobs=4``) reproduce the serial
  sweep's simulated job times bit-exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.suite import MicroBenchmarkSuite, clear_result_cache
from repro.hadoop.cluster import cluster_a
from repro.hadoop.job import JobConf
from repro.net import NetworkFabric
from repro.net.interconnect import InterconnectSpec
from repro.net.solver import compute_max_min, solve_max_min_grouped
from repro.sim import Simulator


class _FakeFlow:
    __slots__ = ("links", "class_id")

    def __init__(self, links, class_id):
        self.links = links
        self.class_id = class_id

    def __repr__(self):
        return f"flow{self.links!r}"


def _fabric_links(src, dst, racks):
    """Link tuple shaped exactly like NetworkFabric._links_of."""
    if src == dst:
        return (("loop", src),)
    links = (("out", src), ("in", dst))
    if racks is not None and racks[src] != racks[dst]:
        links += (("rack-up", racks[src]), ("rack-down", racks[dst]))
    return links


def _grouped_inputs(pairs, hosts, racks, cap_of, order_seed):
    """Flows plus the fabric-shaped class and link tables for them.

    Like a fabric that has seen many flows come and go, the tables
    intern every (src, dst) class of the host set, in an order shuffled
    by ``order_seed``, so class and link ids say nothing about which
    flows are active or which link they touch first.
    """
    every = [_fabric_links(s, d, racks)
             for s in range(hosts) for d in range(hosts)]
    random.Random(order_seed).shuffle(every)
    link_ids, class_ids, class_links, caps = {}, {}, [], []
    for links in every:
        ids = []
        for link in links:
            if link not in link_ids:
                link_ids[link] = len(caps)
                caps.append(cap_of(link))
            ids.append(link_ids[link])
        class_ids[links] = len(class_links)
        class_links.append(tuple(ids))
    flows = []
    for s, d in pairs:
        links = _fabric_links(s, d, racks)
        flows.append(_FakeFlow(links, class_ids[links]))
    caps_by_link = {link: caps[i] for link, i in link_ids.items()}
    return flows, class_links, caps, caps_by_link


def _assert_grouped_matches_reference(flows, class_links, caps, caps_by_link):
    reference = compute_max_min(flows, caps_by_link, lambda f: f.links)
    grouped = solve_max_min_grouped(flows, class_links, caps)
    assert set(grouped) == {f.class_id for f in flows}
    for flow in flows:
        # Bit-exact, not approx: the fabric swap relies on it.
        assert grouped[flow.class_id] == reference[flow], flow


# Figure-scale solves: up to 300 flows over up to 16 hosts (the fig3
# solves run ~75 flows over 8 hosts), loopback allowed. Few hosts and
# many flows make classes with k > 1 members common, and one NIC
# capacity for every host makes exact fair-share ties common.
_hosts = st.integers(1, 16)
_caps = st.floats(min_value=0.5, max_value=1e9)


@st.composite
def _solves(draw):
    """``(pairs, hosts, racks, seed)``: a seeded draw of up to 300
    flows, since hypothesis' own lists stay far smaller than that."""
    hosts = draw(_hosts)
    flows = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    pairs = [(rng.randrange(hosts), rng.randrange(hosts))
             for _ in range(flows)]
    split = draw(st.one_of(st.none(), st.integers(0, hosts)))
    racks = None if split is None else {h: int(h >= split)
                                        for h in range(hosts)}
    return pairs, hosts, racks, seed


@given(_solves(), _caps, _caps, _caps)
@settings(max_examples=200, deadline=None)
def test_grouped_solver_matches_reference_bitwise(solve, nic_cap,
                                                  loop_cap, rack_cap):
    pairs, hosts, racks, order_seed = solve

    def cap_of(link):
        kind = link[0]
        return (loop_cap if kind == "loop"
                else rack_cap if kind.startswith("rack")
                else nic_cap)

    _assert_grouped_matches_reference(
        *_grouped_inputs(pairs, hosts, racks, cap_of, order_seed))


@given(_solves(), _caps)
@settings(max_examples=100, deadline=None)
def test_grouped_solver_uneven_caps(solve, base_cap):
    """Per-link capacity perturbations (deterministic in the link) so
    classes hit different bottlenecks than their neighbours."""
    pairs, hosts, racks, order_seed = solve
    kinds = {"out": 0, "in": 1, "loop": 2, "rack-up": 3, "rack-down": 4}

    def cap_of(link):
        kind, where = link
        return base_cap * (1.0 + 0.1 * ((5 * where + kinds[kind]) % 7))

    _assert_grouped_matches_reference(
        *_grouped_inputs(pairs, hosts, racks, cap_of, order_seed))


# -- fabric level -------------------------------------------------------

_SPEC = InterconnectSpec(
    name="equiv-test",
    raw_gbps=1,
    effective_bandwidth=117.0,  # non-round: exercises float paths
    latency=0.001,
    fetch_setup=0.0,
    cpu_per_byte=0.001,
)


def _run_workload(solver, racked):
    """A staggered many-flow workload; returns all completion times."""
    sim = Simulator()
    fabric = NetworkFabric(
        sim, _SPEC, loopback_bandwidth=990.0,
        rack_uplink_bandwidth=250.0 if racked else None,
        solver=solver,
    )
    for i in range(6):
        fabric.add_node(f"n{i}", cores=8, rack=i % 2)
    rng = random.Random(20140901)
    flows = []
    for _ in range(60):
        src = f"n{rng.randrange(6)}"
        dst = f"n{rng.randrange(6)}"  # loopback allowed
        nbytes = rng.uniform(1.0, 5000.0)
        delay = rng.uniform(0.0, 30.0)
        flows.append(fabric.start_flow(src, dst, nbytes, delay=delay))
    sim.run()
    assert all(f.finished_at is not None for f in flows)
    return [f.finished_at for f in flows]


def test_fabric_reference_vs_incremental_flat():
    assert _run_workload("incremental", racked=False) == \
        _run_workload("reference", racked=False)


def test_fabric_reference_vs_incremental_racked():
    assert _run_workload("incremental", racked=True) == \
        _run_workload("reference", racked=True)


# -- suite level --------------------------------------------------------

def _sweep_times(jobs):
    suite = MicroBenchmarkSuite(cluster=cluster_a(4),
                                jobconf=JobConf(version="mrv1"))
    clear_result_cache()  # a cache hit would make the comparison vacuous
    sweep = suite.sweep(
        "MR-RAND", [1.0, 2.0], ["1GigE", "ipoib-qdr"],
        jobs=jobs, memoize=False,
        num_maps=16, num_reduces=8, key_size=512, value_size=512,
        data_type="BytesWritable",
    )
    return [(r.network, r.shuffle_gb, r.execution_time) for r in sweep.rows]


def test_parallel_sweep_times_bit_identical():
    serial = _sweep_times(jobs=1)
    parallel = _sweep_times(jobs=4)
    assert serial == parallel  # float equality on execution times


def test_parallel_trials_bit_identical():
    suite = MicroBenchmarkSuite(cluster=cluster_a(4),
                                jobconf=JobConf(version="yarn"))
    kwargs = dict(shuffle_gb=1.0, num_maps=8, num_reduces=4,
                  memoize=False)
    serial = suite.run_trials("MR-SKEW", trials=3, jobs=1, **kwargs)
    parallel = suite.run_trials("MR-SKEW", trials=3, jobs=4, **kwargs)
    assert serial == parallel
