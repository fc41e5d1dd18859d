"""Differential fuzz of the fabric's fault paths: incremental vs reference.

``tests/net/test_solver_equivalence.py`` compares the two solver modes
on healthy workloads only. Fault injection reaches the fabric through
two more entry points — :meth:`NetworkFabric.set_link_factor` (degraded
or flaky links) and :meth:`NetworkFabric.abort_flow` (a dead fetcher) —
and both force re-solves the healthy paths never make: a capacity that
changes under running flows, a departure that is not a completion, and
a factor change while no flow is active at all.

Each case builds one random scenario (hosts, flows with zero and
non-zero sizes and start delays, link-factor windows on NIC links,
aborts at random times), runs it on ``solver="incremental"`` and
``solver="reference"``, and asserts that every flow's ``finished_at``,
``aborted`` and ``remaining`` and every node's rx/tx totals are equal
with ``==``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NetworkFabric
from repro.net.interconnect import InterconnectSpec
from repro.sim import Simulator

_SPEC = InterconnectSpec(
    name="fault-fuzz",
    raw_gbps=1,
    effective_bandwidth=117.0,  # non-round: exercises float paths
    latency=0.001,
    fetch_setup=0.0,
    cpu_per_byte=0.001,
)

#: Simulated seconds over which flows start and faults fire.
_HORIZON = 40.0


def _scenario(hosts, racked, n_flows, n_windows, n_aborts, seed):
    """A fault scenario as plain data, identical for both solver runs."""
    rng = random.Random(seed)
    flows = []
    for _ in range(n_flows):
        src, dst = rng.randrange(hosts), rng.randrange(hosts)
        nbytes = 0.0 if rng.random() < 0.1 else rng.uniform(1.0, 5000.0)
        flows.append((src, dst, nbytes, rng.uniform(0.0, _HORIZON)))
    windows = []
    for _ in range(n_windows):
        link = (rng.choice(("in", "out")), f"n{rng.randrange(hosts)}")
        start = rng.uniform(0.0, _HORIZON)
        windows.append((start, start + rng.uniform(0.01, 10.0), link,
                        rng.uniform(0.25, 2.0)))
    aborts = [(rng.uniform(0.0, _HORIZON), rng.randrange(n_flows))
              for _ in range(n_aborts if n_flows else 0)]
    return hosts, racked, flows, windows, aborts


def _run(solver, scenario):
    hosts, racked, flow_specs, windows, aborts = scenario
    sim = Simulator()
    fabric = NetworkFabric(
        sim, _SPEC, loopback_bandwidth=990.0,
        rack_uplink_bandwidth=250.0 if racked else None,
        solver=solver,
    )
    for i in range(hosts):
        fabric.add_node(f"n{i}", cores=8, rack=i % 2)
    flows = [fabric.start_flow(f"n{src}", f"n{dst}", nbytes, delay=delay)
             for src, dst, nbytes, delay in flow_specs]
    for start, end, link, factor in windows:
        sim.call_at(start, lambda link=link, factor=factor:
                    fabric.set_link_factor(link, factor))
        sim.call_at(end, lambda link=link: fabric.set_link_factor(link, 1.0))
    for when, index in aborts:
        sim.call_at(when, lambda flow=flows[index]: fabric.abort_flow(flow))
    sim.run()
    assert fabric.active_flows == 0
    return ([(f.finished_at, f.aborted, f.remaining) for f in flows],
            [(node.rx.total, node.tx.total)
             for node in fabric.nodes.values()])


@given(hosts=st.integers(2, 8), racked=st.booleans(),
       n_flows=st.integers(0, 80), n_windows=st.integers(0, 6),
       n_aborts=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_fault_paths_match_reference_bitwise(hosts, racked, n_flows,
                                             n_windows, n_aborts, seed):
    scenario = _scenario(hosts, racked, n_flows, n_windows, n_aborts, seed)
    assert _run("incremental", scenario) == _run("reference", scenario)


def test_link_factor_with_no_active_flow():
    """Factor windows that open while the fabric is idle (the first
    one also closes before any flow starts)."""
    scenario = (2, False, [(0, 1, 500.0, 5.0)],
                [(1.0, 2.0, ("out", "n0"), 0.5),
                 (3.0, 8.0, ("in", "n1"), 0.25)], [])
    incremental = _run("incremental", scenario)
    assert incremental == _run("reference", scenario)
    (finished_at, aborted, remaining), = incremental[0]
    assert not aborted and remaining == 0.0
    assert finished_at > 5.0 + 500.0 / 117.0  # the in-link window slowed it
