"""Flow-level network fabric with max-min fair bandwidth sharing.

The MapReduce shuffle creates an all-to-all traffic pattern: every
reduce task fetches a segment from every map task's host. On a cluster
with a non-blocking switch (both testbeds in the paper use one), the
contended resources are the per-node NIC ingress and egress capacities.
TCP's AIMD converges to an allocation close to *max-min fairness* over
those capacities, so the fabric computes exact max-min rates by
progressive filling whenever the set of active flows changes, and
integrates transferred bytes between change points.

Node-local transfers (a reducer fetching from a mapper on the same
host) do not touch the NIC; they ride a per-node loopback link with its
own (memory-speed) capacity, which is why local fetches are equally
fast on every interconnect — as in real Hadoop.

Rate allocation is the simulation's hot loop (each job re-solves it on
every flow arrival/departure), so the fabric keeps three fast paths,
all bit-identical to the reference solver (see :mod:`repro.net.solver`):

* a flow's traversed-link tuple depends only on its (src, dst) pair,
  so each fabric computes it once per pair, at the pair's first flow,
  and interns it to a small-integer *class id*; each link gets a link
  id the same way. The fabric keeps a class id -> link-id tuple table
  and capacity and active-flow-count lists indexed by link id, so the
  hot path never hashes a link name or tuple. Nothing is shared
  between fabrics, so the ids follow only the fabric's own flows;
* per-link active-flow counts are maintained incrementally, and when a
  change point only touches links private to the changed flows (e.g. a
  loopback fetch on an otherwise-idle host), the solver run is skipped
  entirely — surviving flows provably keep their rates;
* the full solve groups flows by class id
  (:func:`~repro.net.solver.solve_max_min_grouped`) and returns one
  rate per class. A recompute walks the active flows once to split
  finished flows from survivors (finding the smallest remainder on the
  way) and once more to assign class rates, sum node rates in flow
  order and find the next completion.

Link names remain only at the edges: :meth:`NetworkFabric.set_link_factor`
takes one, :meth:`NetworkFabric._links_of` builds the tuples, and the
reference path solves over them.
``NetworkFabric(..., solver="reference")`` disables all three and runs
the original O(flows^2)-ish recompute; the equivalence tests simulate
identical workloads under both modes and assert bit-equal timings.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, Optional, Tuple

from repro.net.interconnect import InterconnectSpec
from repro.net.solver import compute_max_min, solve_max_min_grouped
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.monitor import ByteCounter
from repro.sim.trace import CAT_NET

__all__ = [
    "DEFAULT_LOOPBACK_BANDWIDTH",
    "FabricNode",
    "Flow",
    "NetworkFabric",
    "compute_max_min",
]

_EPS = 1e-6
_INF = float("inf")

#: Default loopback (same-host) transfer bandwidth, bytes/s. Memory-copy
#: speed through the local socket stack; identical for all interconnects.
DEFAULT_LOOPBACK_BANDWIDTH = 3.0e9


class Flow:
    """One in-flight transfer between two fabric nodes.

    ``done`` succeeds (with the flow as value) when the last byte has
    been delivered. ``rate`` is the current max-min share in bytes/s.
    ``links`` is the tuple of fabric links the flow traverses, shared by
    every flow of its (src, dst) pair, and ``class_id`` the fabric's
    small-integer id for that tuple; ``wire`` is False for node-local
    (loopback) flows that never touch a NIC.

    Flow ids are assigned per fabric (not per process), so event names
    and id-keyed debugging output are identical from run to run no
    matter what simulations ran earlier in the process.
    """

    __slots__ = (
        "id", "fabric", "src", "dst", "nbytes", "remaining", "rate",
        "started_at", "finished_at", "done", "links", "class_id", "wire",
        "aborted",
    )

    def __init__(self, fabric: "NetworkFabric", src: str, dst: str, nbytes: float):
        self.id = next(fabric._flow_ids)
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.aborted = False
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done: Event = fabric.sim.event(name=f"flow#{self.id}:{src}->{dst}")
        self.links, self.class_id = fabric._route_of(self)
        self.wire = src != dst

    @property
    def is_local(self) -> bool:
        return self.src == self.dst

    def __repr__(self) -> str:
        return (
            f"<Flow#{self.id} {self.src}->{self.dst} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B @ {self.rate:.0f}B/s>"
        )


class _LiveDirectionalCounter(ByteCounter):
    """Byte counter including in-flight progress since the last change point."""

    __slots__ = ("_node", "_direction")

    def __init__(self, node: "FabricNode", direction: str):
        super().__init__()
        self._node = node
        self._direction = direction

    @property
    def total(self) -> float:
        fabric = self._node.fabric
        dt = fabric.sim.now - fabric._last
        rate = (
            self._node.in_rate if self._direction == "rx" else self._node.out_rate
        )
        return self._total + rate * dt


class FabricNode:
    """A host attached to the fabric.

    Exposes live receive/send byte counters (``rx``/``tx``) for
    throughput monitoring (Fig. 7(b)) and :attr:`protocol_cpu`, the
    cores currently burned by protocol processing — part of the CPU
    trace in Fig. 7(a). ``rack`` places the host in a multi-rack
    topology; hosts in different racks contend for the rack uplinks when
    those are capacity-limited.
    """

    __slots__ = ("fabric", "name", "cores", "rack", "in_rate", "out_rate",
                 "rx", "tx")

    def __init__(self, fabric: "NetworkFabric", name: str, cores: int = 8,
                 rack: int = 0):
        self.fabric = fabric
        self.name = name
        self.cores = cores
        self.rack = rack
        self.in_rate = 0.0
        self.out_rate = 0.0
        self.rx: ByteCounter = _LiveDirectionalCounter(self, "rx")
        self.tx: ByteCounter = _LiveDirectionalCounter(self, "tx")

    @property
    def protocol_cpu(self) -> float:
        """Cores burned by protocol processing at the current rates:
        ``(in_rate + out_rate) * cpu_per_byte``, capped at ``cores``."""
        level = ((self.in_rate + self.out_rate)
                 * self.fabric.interconnect.cpu_per_byte)
        cores = float(self.cores)
        return level if level < cores else cores  # NaN reads as cores

    def __repr__(self) -> str:
        return f"<FabricNode {self.name} rack={self.rack}>"


def clear_link_table_cache() -> None:
    """No-op kept for the repository benchmark, which calls it between
    passes: each fabric interns its own links, so nothing is cached."""


class NetworkFabric:
    """The cluster network: nodes, NIC capacities, max-min flow rates."""

    def __init__(
        self,
        sim: Simulator,
        interconnect: InterconnectSpec,
        loopback_bandwidth: float = DEFAULT_LOOPBACK_BANDWIDTH,
        rack_uplink_bandwidth: Optional[float] = None,
        solver: str = "incremental",
    ):
        """``rack_uplink_bandwidth`` caps each rack's aggregate traffic
        to/from the core switch (bytes/s, each direction). ``None``
        models the paper's single non-blocking switch. ``solver`` picks
        ``"incremental"`` (grouped fast solver + change-point skipping)
        or ``"reference"`` (the plain water-filling recompute); both
        produce bit-identical timings."""
        if solver not in ("incremental", "reference"):
            raise ValueError(f"unknown solver {solver!r}")
        self.sim = sim
        self.interconnect = interconnect
        self.loopback_bandwidth = loopback_bandwidth
        self.rack_uplink_bandwidth = rack_uplink_bandwidth
        self.solver = solver
        self.nodes: Dict[str, FabricNode] = {}
        self._active: List[Flow] = []
        self._last = sim.now
        self._timer_id = 0
        self._flow_ids = itertools.count()
        #: Fastest rate any flow can get; sizes the guard in _recompute.
        self._probe_rate = max(interconnect.effective_bandwidth,
                               loopback_bandwidth)
        #: link -> link id, numbered in order of first use by a flow.
        self._link_ids: Dict[Hashable, int] = {}
        #: link id -> capacity. Static unless fault injection scales a
        #: link through :meth:`set_link_factor`.
        self._caps: List[float] = []
        #: link id -> number of active flows traversing it.
        self._link_counts: List[int] = []
        #: (src, dst) -> (link tuple, class id) of that pair's flows.
        self._routes: Dict[Tuple[str, str], Tuple[Tuple[Hashable, ...],
                                                  int]] = {}
        #: class id -> the class's link ids, in link-tuple order.
        self._class_links: List[Tuple[int, ...]] = []
        #: link -> capacity multiplier from fault injection (absent
        #: means 1.0; empty in every non-faulted run).
        self._link_factors: Dict[Hashable, float] = {}

    # -- topology --------------------------------------------------------

    def add_node(self, name: str, cores: int = 8, rack: int = 0) -> FabricNode:
        """Attach a host to the fabric (optionally in a rack)."""
        if name in self.nodes:
            raise ValueError(f"duplicate fabric node {name!r}")
        node = FabricNode(self, name, cores=cores, rack=rack)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> FabricNode:
        return self.nodes[name]

    # -- flows -------------------------------------------------------------

    def start_flow(
        self, src: str, dst: str, nbytes: float, delay: float = 0.0
    ) -> Flow:
        """Begin transferring ``nbytes`` from ``src`` to ``dst``.

        The flow starts consuming bandwidth after ``delay`` plus the
        interconnect's one-way latency (callers add transport-level
        setup costs through ``delay``). A zero-byte flow completes as
        soon as its latency elapses.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"unknown fabric node in {src!r}->{dst!r}")
        if nbytes < 0:
            raise ValueError(f"negative flow size: {nbytes}")
        flow = Flow(self, src, dst, nbytes)
        start_after = delay + self.interconnect.latency

        def activate() -> None:
            if flow.aborted:
                return  # aborted while waiting out its setup latency
            flow.started_at = self.sim.now
            if flow.remaining <= _EPS:
                flow.finished_at = self.sim.now
                flow.done.succeed(flow)
                self._trace_flow(flow)
                return
            self._advance()
            self._active.append(flow)
            counts = self._link_counts
            for link in self._class_links[flow.class_id]:
                counts[link] += 1
            self._recompute(flow)

        if start_after > 0:
            self.sim.call_at(self.sim.now + start_after, activate)
        else:
            activate()
        return flow

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def abort_flow(self, flow: Flow) -> None:
        """Tear down an unfinished flow (fault injection: the fetcher
        died or the transfer failed). Its ``done`` event never fires;
        bytes already moved stay counted. Only called on faulted paths —
        never on a healthy run."""
        if flow.finished_at is not None or flow.aborted:
            return
        flow.aborted = True
        if flow not in self._active:
            return  # still waiting out its setup latency
        self._advance()
        self._active.remove(flow)
        counts = self._link_counts
        for link in self._class_links[flow.class_id]:
            counts[link] -= 1
        flow.finished_at = self.sim.now
        flow.rate = 0.0
        self._recompute(departed_seed=[flow])

    def set_link_factor(self, link: Hashable, factor: float) -> None:
        """Scale one link's capacity (fault injection: degraded NICs,
        flaky-link windows). ``factor`` is the absolute multiplier on
        the pristine capacity; 1.0 restores it. Forces a full re-solve —
        surviving flows must pick up the new capacity."""
        if factor <= 0:
            raise ValueError(f"link factor must be positive, got {factor}")
        self._advance()
        if factor == 1.0:
            self._link_factors.pop(link, None)
        else:
            self._link_factors[link] = factor
        link_id = self._link_ids.get(link)
        if link_id is not None:
            self._caps[link_id] = self._cap_of(link)
        self._recompute(force_full=True)

    def _trace_flow(self, flow: Flow) -> None:
        """Record a finished flow on the trace bus (no-op when off)."""
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.complete(
                f"flow {flow.src}->{flow.dst}",
                CAT_NET,
                "net",
                flow.dst,
                flow.started_at,
                flow.finished_at,
                bytes=flow.nbytes,
                local=flow.is_local,
            )

    # -- rate bookkeeping ---------------------------------------------------

    def _links_of(self, flow: Flow) -> Tuple[Hashable, ...]:
        if flow.src == flow.dst:
            return (("loop", flow.src),)
        links: Tuple[Hashable, ...] = (("out", flow.src), ("in", flow.dst))
        if self.rack_uplink_bandwidth is not None:
            src_rack = self.nodes[flow.src].rack
            dst_rack = self.nodes[flow.dst].rack
            if src_rack != dst_rack:
                links += (("rack-up", src_rack), ("rack-down", dst_rack))
        return links

    def _route_of(self, flow: Flow) -> Tuple[Tuple[Hashable, ...], int]:
        """A flow's link tuple and class id, interned per (src, dst).

        Distinct pairs traverse distinct link tuples, so the first flow
        of a pair opens a new class, and each link new to the fabric
        gets the next link id and its capacity from :meth:`_cap_of`.
        """
        pair = (flow.src, flow.dst)
        route = self._routes.get(pair)
        if route is None:
            links = self._links_of(flow)
            link_ids = self._link_ids
            ids = []
            for link in links:
                link_id = link_ids.get(link)
                if link_id is None:
                    link_id = link_ids[link] = len(self._caps)
                    self._caps.append(self._cap_of(link))
                    self._link_counts.append(0)
                ids.append(link_id)
            route = self._routes[pair] = (links, len(self._class_links))
            self._class_links.append(tuple(ids))
        return route

    def _cap_of(self, link: Hashable) -> float:
        kind = link[0]
        if kind == "loop":
            cap = self.loopback_bandwidth
        elif kind in ("rack-up", "rack-down"):
            cap = self.rack_uplink_bandwidth
        else:
            cap = self.interconnect.sustained_bandwidth
        if self._link_factors:
            cap *= self._link_factors.get(link, 1.0)
        return cap

    def _link_caps(self) -> Dict[Hashable, float]:
        """Capacities of the links the active flows traverse, by link
        (reference solver path; the incremental path reads ``_caps``)."""
        caps: Dict[Hashable, float] = {}
        for flow in self._active:
            for link in flow.links:
                caps[link] = self._cap_of(link)
        return caps

    def _advance(self) -> None:
        """Integrate transfers since the last change point."""
        now = self.sim.now
        dt = now - self._last
        if dt <= 0:
            self._last = now
            return
        nodes = self.nodes
        for flow in self._active:
            moved = flow.rate * dt
            flow.remaining -= moved
            if flow.wire:
                # rx/tx counters model NIC statistics; loopback traffic
                # never crosses the wire.
                nodes[flow.src].tx._total += moved
                nodes[flow.dst].rx._total += moved
        self._last = now

    def _recompute(self, new_flow: Optional[Flow] = None,
                   force_full: bool = False,
                   departed_seed: Optional[List[Flow]] = None) -> None:
        """Finish completed flows, re-run max-min, arm the next timer.

        ``new_flow`` is the flow appended at this change point, if any;
        it enables the private-links fast path (see class docstring).
        ``force_full`` disables that fast path (a link capacity just
        changed, so surviving rates are stale). ``departed_seed`` feeds
        flows already removed by the caller (an abort) into the
        private-links check.
        """
        now = self.sim.now
        counts = self._link_counts
        class_links = self._class_links
        departed: List[Flow] = list(departed_seed) if departed_seed else []
        active = self._active
        while True:
            finished: List[Flow] = []
            survivors: List[Flow] = []
            min_remaining = _INF
            for flow in active:
                remaining = flow.remaining
                if remaining <= _EPS:
                    finished.append(flow)
                else:
                    survivors.append(flow)
                    if remaining < min_remaining:
                        min_remaining = remaining
            if finished:
                active = self._active = survivors
                departed.extend(finished)
                for flow in finished:
                    flow.remaining = 0.0
                    flow.finished_at = now
                    for link in class_links[flow.class_id]:
                        counts[link] -= 1
                    flow.done.succeed(flow)
                    self._trace_flow(flow)
            if not active:
                break
            # Guard against sub-float-resolution remainders freezing the
            # clock on zero-delay timers (see FairShareResource).
            if now + min_remaining / self._probe_rate > now:
                break
            threshold = min_remaining + _EPS
            for flow in active:
                if flow.remaining <= threshold:
                    flow.remaining = 0.0

        if self.solver == "reference":
            rates = compute_max_min(active, self._link_caps(),
                                    lambda f: f.links)
            next_done = self._apply_rates(active, rates)
        elif not force_full and self._links_private(departed, new_flow):
            # Change-point skip: every link touched by the changed flows
            # is now used by nobody (departures) or only by the new flow
            # (arrival). Surviving flows keep their rates; only the
            # changed endpoints need bookkeeping.
            next_done = self._apply_private(active, departed, new_flow)
        else:
            next_done = self._apply_class_rates(
                active,
                solve_max_min_grouped(active, class_links, self._caps))

        self._timer_id += 1
        if next_done is None:
            return
        timer_id = self._timer_id

        def on_timer() -> None:
            if timer_id != self._timer_id:
                return  # superseded by a later arrival/departure
            self._advance()
            self._recompute()

        self.sim.call_at(now + next_done, on_timer)

    # -- allocation bookkeeping ------------------------------------------

    def _links_private(self, departed: List[Flow],
                       new_flow: Optional[Flow]) -> bool:
        """True when no *surviving pre-existing* flow shares a link with
        any changed flow, so the previous allocation provably stands."""
        counts = self._link_counts
        class_links = self._class_links
        new_links: Tuple[int, ...] = ()
        if new_flow is not None:
            new_links = class_links[new_flow.class_id]
            for link in new_links:
                if counts[link] != 1:
                    return False
        for flow in departed:
            for link in class_links[flow.class_id]:
                if link not in new_links and counts[link] != 0:
                    return False
        return True

    def _apply_rates(self, active: List[Flow],
                     rates: Dict[Flow, float]) -> Optional[float]:
        """Reference-path refresh from per-flow solver rates.

        Returns the time until the next flow completes, or None when no
        flow is moving.
        """
        nodes = self.nodes
        in_rate = dict.fromkeys(nodes, 0.0)
        out_rate = dict.fromkeys(nodes, 0.0)
        for flow in active:
            flow.rate = rate = rates.get(flow, 0.0)
            if flow.wire:
                out_rate[flow.src] += rate
                in_rate[flow.dst] += rate
        self._set_node_rates(in_rate, out_rate)
        return self._next_done(active)

    def _apply_class_rates(self, active: List[Flow],
                           rates: Dict[int, float]) -> Optional[float]:
        """Full refresh after a grouped solve, in one walk of the flows.

        Each flow takes its class's rate; node rates are summed in flow
        order (the reference order, so the sums are the same floats).
        Returns the time until the next flow completes, or None when no
        flow is moving.
        """
        nodes = self.nodes
        in_rate = dict.fromkeys(nodes, 0.0)
        out_rate = dict.fromkeys(nodes, 0.0)
        next_done = _INF
        for flow in active:
            flow.rate = rate = rates[flow.class_id]
            if flow.wire:
                out_rate[flow.src] += rate
                in_rate[flow.dst] += rate
            if rate > 0.0:
                until = flow.remaining / rate
                if until < next_done:
                    next_done = until
        self._set_node_rates(in_rate, out_rate)
        if next_done == _INF:
            return self._next_done(active)  # nothing moving, or overflow
        return next_done

    def _apply_private(self, active: List[Flow], departed: List[Flow],
                       new_flow: Optional[Flow]) -> Optional[float]:
        """Endpoint-only bookkeeping for the private-links fast path.

        A departed wire flow leaves its endpoints with *no* remaining
        flows in that direction (its links' counts are zero), so the
        directional rates collapse to exactly 0.0 — the same value a
        fresh solver sum would produce. A new flow with private links
        gets ``min(cap)`` — exactly what progressive filling assigns a
        flow that shares no link — and its endpoints' directional rates
        go from exactly 0.0 to exactly its rate. Returns the time until
        the next flow completes, or None when no flow is moving.
        """
        nodes = self.nodes
        for flow in departed:
            if flow.wire:
                nodes[flow.src].out_rate = 0.0
                nodes[flow.dst].in_rate = 0.0
        if new_flow is not None:
            caps = self._caps
            rate = min(caps[link]
                       for link in self._class_links[new_flow.class_id])
            new_flow.rate = rate
            if new_flow.wire:
                nodes[new_flow.src].out_rate = rate
                nodes[new_flow.dst].in_rate = rate
        return self._next_done(active)

    def _set_node_rates(self, in_rate: Dict[str, float],
                        out_rate: Dict[str, float]) -> None:
        """Store every node's summed directional rates."""
        for node in self.nodes.values():
            node.in_rate = in_rate[node.name]
            node.out_rate = out_rate[node.name]

    @staticmethod
    def _next_done(active: List[Flow]) -> Optional[float]:
        """Time until the first moving flow completes (None if none)."""
        positive = [f for f in active if f.rate > 0]
        if not positive:
            return None
        return min(f.remaining / f.rate for f in positive)
