"""Deterministic fault injection and resilience reporting.

The paper isolates the shuffle because it is the phase most sensitive
to network behaviour; this module lets the suite ask the follow-on
questions a healthy-fabric benchmark cannot — what happens to each
interconnect's advantage when a node dies mid-shuffle, when a NIC is
degraded, or when tasks fail and re-execute?

Everything is declarative and seeded. A :class:`FaultPlan` describes

* per-task failure injection (a generalization of the
  ``JobConf.task_failure_probability`` coin, plus flaky shuffle
  fetches),
* node crashes at a simulated time or after a number of completed
  tasks (every running attempt on the node dies, its slot/container
  pool drains, and retries reschedule on surviving nodes),
* straggler/slow-node injection (per-node CPU and NIC slowdown
  factors), and
* network degradation (per-link capacity cuts, optionally windowed in
  time — "flaky links" — on the max-min fabric).

The :class:`FaultInjector` threads the plan through a running
simulation: it arms timers on the kernel, kills task processes on a
crash, scales link capacities on the fabric, and keeps the
:class:`ResilienceReport` (recovery time, wasted work, re-executed
bytes, speculation effectiveness) that
:class:`~repro.hadoop.result.SimJobResult` carries back.

No-plan discipline
------------------
Like the :data:`~repro.sim.trace.NULL_TRACER`, fault injection must be
a *provable no-op* when unused: drivers only construct an injector when
``plan.is_noop()`` is false, and every hook in the task lifecycle is
guarded by ``if faults is not None``. A run without a plan (or with an
empty :class:`FaultPlan`) is bit-identical to the pre-fault-injection
code — the golden-times suite asserts this hex-exactly.

Determinism
-----------
All failure coins are pure functions of ``(plan.seed, kind, task id,
attempt, salt)`` — independent of wall clock, process, scheduling
order, and ``PYTHONHASHSEED`` — so the same plan reproduces the same
job times and resilience metrics across runs and on the forked
worker processes of ``sweep(jobs=N)``. Crashes and link windows fire at
exact simulated times through the kernel's deterministic event queue.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import (TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence,
                    Set, Tuple)

from repro.sim.events import Event
from repro.sim.trace import CAT_FAULT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hadoop.node import SimNode
    from repro.net.fabric import NetworkFabric
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

__all__ = [
    "CrashRecord",
    "FaultInjector",
    "FaultPlan",
    "LinkFault",
    "NodeCrash",
    "ResilienceReport",
    "SlowNode",
]


# ---------------------------------------------------------------------------
# The declarative plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCrash:
    """Kill one node, either at a simulated time or after it has
    completed a number of tasks (exactly one trigger must be set)."""

    node: str
    #: Absolute simulated time of the crash, seconds.
    at_time: Optional[float] = None
    #: Crash after this many task completions on the node.
    after_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.at_time is None) == (self.after_tasks is None):
            raise ValueError(
                f"NodeCrash({self.node!r}) needs exactly one of "
                f"at_time / after_tasks"
            )
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"at_time must be >= 0, got {self.at_time}")
        if self.after_tasks is not None and self.after_tasks < 1:
            raise ValueError(
                f"after_tasks must be >= 1, got {self.after_tasks}"
            )


@dataclass(frozen=True)
class SlowNode:
    """Straggler injection: slow one node's CPU and/or NIC.

    Factors are *slowdowns* (>= 1.0): ``cpu_factor=2`` doubles every
    CPU burst on the node; ``nic_factor=4`` quarters the node's NIC
    ingress and egress capacity on the fabric.
    """

    node: str
    cpu_factor: float = 1.0
    nic_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_factor < 1.0 or self.nic_factor < 1.0:
            raise ValueError(
                f"SlowNode({self.node!r}) factors must be >= 1.0, got "
                f"cpu={self.cpu_factor} nic={self.nic_factor}"
            )


@dataclass(frozen=True)
class LinkFault:
    """Degrade one node's NIC link(s) — optionally only for a window.

    ``factor`` is a *capacity multiplier* in (0, 1]: ``0.25`` leaves a
    quarter of the bandwidth. ``direction`` picks the ingress link,
    the egress link, or both. With ``end=None`` the cut is permanent
    from ``start`` on; otherwise the link recovers at ``end`` (a
    "flaky link" window).
    """

    node: str
    factor: float
    direction: str = "both"
    start: float = 0.0
    end: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"LinkFault({self.node!r}) factor must be in (0, 1], "
                f"got {self.factor}"
            )
        if self.direction not in ("in", "out", "both"):
            raise ValueError(
                f"LinkFault direction must be 'in', 'out' or 'both', "
                f"got {self.direction!r}"
            )
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"end ({self.end}) must be after start ({self.start})"
            )

    def links(self) -> Tuple[Hashable, ...]:
        """The fabric link keys this fault degrades."""
        if self.direction == "in":
            return (("in", self.node),)
        if self.direction == "out":
            return (("out", self.node),)
        return (("in", self.node), ("out", self.node))


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of the faults to inject.

    Hashable and picklable by construction, so plans participate in
    the sweep memo-cache key and cross worker-process boundaries.
    """

    seed: int = 20140901
    #: Per-attempt failure probability for map and reduce tasks
    #: (generalizes ``JobConf.task_failure_probability``; both coins
    #: may be active and are independent).
    task_failure_probability: float = 0.0
    #: Per-attempt probability that a shuffle fetch must be retried.
    fetch_failure_probability: float = 0.0
    node_crashes: Tuple[NodeCrash, ...] = ()
    slow_nodes: Tuple[SlowNode, ...] = ()
    link_faults: Tuple[LinkFault, ...] = ()

    def __post_init__(self) -> None:
        for name, p in (
            ("task_failure_probability", self.task_failure_probability),
            ("fetch_failure_probability", self.fetch_failure_probability),
        ):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        # Tolerate (and normalize) lists from from_dict callers.
        object.__setattr__(self, "node_crashes", tuple(self.node_crashes))
        object.__setattr__(self, "slow_nodes", tuple(self.slow_nodes))
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        crashed = [c.node for c in self.node_crashes]
        if len(crashed) != len(set(crashed)):
            raise ValueError(f"duplicate node in node_crashes: {crashed}")
        slowed = [s.node for s in self.slow_nodes]
        if len(slowed) != len(set(slowed)):
            raise ValueError(f"duplicate node in slow_nodes: {slowed}")

    def is_noop(self) -> bool:
        """True when the plan injects nothing at all. Drivers skip the
        injector entirely then, keeping runs bit-identical to no-plan
        runs."""
        return (
            self.task_failure_probability == 0.0
            and self.fetch_failure_probability == 0.0
            and not self.node_crashes
            and not self.slow_nodes
            and not self.link_faults
        )

    def node_names(self) -> Set[str]:
        """Every node the plan refers to (for validation)."""
        names = {c.node for c in self.node_crashes}
        names.update(s.node for s in self.slow_nodes)
        names.update(f.node for f in self.link_faults)
        return names

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a JSON object, got "
                             f"{type(data).__name__}")
        known = {
            "seed", "task_failure_probability", "fetch_failure_probability",
            "node_crashes", "slow_nodes", "link_faults",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs = dict(data)
        try:
            kwargs["node_crashes"] = tuple(
                NodeCrash(**c) for c in data.get("node_crashes", ())
            )
            kwargs["slow_nodes"] = tuple(
                SlowNode(**s) for s in data.get("slow_nodes", ())
            )
            kwargs["link_faults"] = tuple(
                LinkFault(**f) for f in data.get("link_faults", ())
            )
        except TypeError as exc:
            raise ValueError(f"malformed fault plan entry: {exc}") from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file (the ``--fault-plan`` flag)."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    def with_overrides(
        self,
        task_failure_probability: Optional[float] = None,
        node_crashes: Sequence[NodeCrash] = (),
        slow_nodes: Sequence[SlowNode] = (),
    ) -> "FaultPlan":
        """CLI convenience: layer flag-level faults over this plan."""
        out = self
        if task_failure_probability is not None:
            out = replace(out,
                          task_failure_probability=task_failure_probability)
        if node_crashes:
            out = replace(out,
                          node_crashes=out.node_crashes + tuple(node_crashes))
        if slow_nodes:
            out = replace(out, slow_nodes=out.slow_nodes + tuple(slow_nodes))
        return out


# ---------------------------------------------------------------------------
# The resilience report
# ---------------------------------------------------------------------------


@dataclass
class CrashRecord:
    """One injected node crash and its recovery."""

    node: str
    time: float
    #: Running task attempts killed by the crash.
    attempts_killed: int = 0
    #: When the last displaced task completed again (``None`` if the
    #: job ended first — e.g. the job failed, or nothing was running).
    recovered_at: Optional[float] = None

    @property
    def recovery_time(self) -> Optional[float]:
        """Seconds from the crash until all displaced work re-ran."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.time


@dataclass
class ResilienceReport:
    """What the fault injection did to one run, and what it cost.

    Pure bookkeeping: counters are updated as side effects of events
    the simulation produces anyway, never by creating events — so the
    report itself cannot perturb simulated time. Picklable (it carries
    no simulator references), so it survives worker processes.
    """

    plan: FaultPlan
    #: Failed task attempts from the failure coins (plan + JobConf).
    task_failures: int = 0
    #: The subset of :attr:`task_failures` injected by the *plan* coin.
    injected_task_failures: int = 0
    #: Shuffle fetches that had to be retried (flaky-fetch coin).
    fetch_retries: int = 0
    #: Wire bytes transferred again because a fetch was retried.
    refetched_bytes: float = 0.0
    #: Task-seconds of work thrown away (failed + crash-killed attempts).
    wasted_task_seconds: float = 0.0
    #: Map-output bytes that had to be produced again.
    reexecuted_bytes: float = 0.0
    speculative_launched: int = 0
    speculative_won: int = 0
    crashes: List[CrashRecord] = field(default_factory=list)

    @property
    def attempts_killed_by_crashes(self) -> int:
        return sum(c.attempts_killed for c in self.crashes)

    @property
    def total_recovery_seconds(self) -> float:
        """Summed recovery time of the crashes that recovered."""
        return sum(c.recovery_time for c in self.crashes
                   if c.recovery_time is not None)

    @property
    def speculation_effectiveness(self) -> Optional[float]:
        """Fraction of launched backups that won (None if none ran)."""
        if self.speculative_launched == 0:
            return None
        return self.speculative_won / self.speculative_launched

    def summary(self) -> Dict[str, object]:
        """Flat dict for reports/CSV."""
        return {
            "task_failures": self.task_failures,
            "injected_task_failures": self.injected_task_failures,
            "fetch_retries": self.fetch_retries,
            "refetched_mb": round(self.refetched_bytes / 1e6, 2),
            "node_crashes": len(self.crashes),
            "attempts_killed": self.attempts_killed_by_crashes,
            "wasted_task_seconds": round(self.wasted_task_seconds, 2),
            "reexecuted_mb": round(self.reexecuted_bytes / 1e6, 2),
            "total_recovery_seconds": round(self.total_recovery_seconds, 2),
            "speculative_launched": self.speculative_launched,
            "speculative_won": self.speculative_won,
        }


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class _AttemptInfo:
    """Bookkeeping for one running task attempt on a node."""

    __slots__ = ("kind", "task_id", "salt", "started_at", "work_bytes")

    def __init__(self, kind: str, task_id: int, salt: int,
                 started_at: float, work_bytes: float):
        self.kind = kind
        self.task_id = task_id
        self.salt = salt
        self.started_at = started_at
        self.work_bytes = work_bytes


class FaultInjector:
    """Executes a :class:`FaultPlan` against one simulated world.

    Construct with the shared world objects, call :meth:`install`
    before the job starts (it arms crash timers and link-fault windows
    and applies slow-node factors), and pass the injector to every
    :class:`~repro.hadoop.runtime.JobExecution` in the world (the
    multi-job driver shares one injector across jobs; the per-job
    ``placement_offset`` salts the coins so jobs fail independently).
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: "Simulator",
        fabric: "NetworkFabric",
        nodes: Sequence["SimNode"],
    ):
        self.plan = plan
        self.sim = sim
        self.fabric = fabric
        self.nodes = {node.name: node for node in nodes}
        unknown = plan.node_names() - set(self.nodes)
        if unknown:
            raise ValueError(
                f"fault plan names unknown nodes {sorted(unknown)}; "
                f"cluster has {sorted(self.nodes)}"
            )
        self.report = ResilienceReport(plan=plan)
        self._dead: Set[str] = set()
        self._crash_specs: Dict[str, NodeCrash] = {
            c.node: c for c in plan.node_crashes
        }
        self._crash_events: Dict[str, Event] = {}
        #: node -> {task attempt Process: its bookkeeping}.
        self._running: Dict[str, Dict["Process", _AttemptInfo]] = {
            name: {} for name in self.nodes
        }
        self._crash_killed: Set["Process"] = set()
        self._completed_on: Dict[str, int] = {}
        #: open crashes awaiting recovery: (record, displaced task keys).
        self._displaced: List[Tuple[CrashRecord, Set[Tuple[str, int, int]]]] = []
        #: link -> current composite capacity factor.
        self._link_state: Dict[Hashable, float] = {}
        self._installed = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Apply static faults and arm the time-triggered ones."""
        if self._installed:
            raise RuntimeError("FaultInjector.install() called twice")
        self._installed = True
        sim = self.sim
        tracer = sim.tracer
        for spec in self.plan.slow_nodes:
            node = self.nodes[spec.node]
            node.cpu_slowdown = spec.cpu_factor
            if spec.nic_factor != 1.0:
                factor = 1.0 / spec.nic_factor
                self._scale_link(("in", spec.node), factor)
                self._scale_link(("out", spec.node), factor)
            if tracer.enabled:
                tracer.instant("slow-node", CAT_FAULT, spec.node, "fault",
                               cpu_factor=spec.cpu_factor,
                               nic_factor=spec.nic_factor)
        for fault in self.plan.link_faults:
            self._arm_link_fault(fault)
        for name, spec in self._crash_specs.items():
            self._crash_events[name] = sim.event(name=f"crash:{name}")
            if spec.at_time is not None:
                sim.call_at(spec.at_time,
                            lambda n=name: self._crash(n))

    def _arm_link_fault(self, fault: LinkFault) -> None:
        sim = self.sim

        def degrade() -> None:
            for link in fault.links():
                self._scale_link(link, fault.factor)
            tracer = sim.tracer
            if tracer.enabled:
                tracer.instant("link-degrade", CAT_FAULT, fault.node,
                               "fault", factor=fault.factor,
                               direction=fault.direction)

        def restore() -> None:
            for link in fault.links():
                self._scale_link(link, 1.0 / fault.factor)
            tracer = sim.tracer
            if tracer.enabled:
                tracer.instant("link-restore", CAT_FAULT, fault.node,
                               "fault", direction=fault.direction)

        if fault.start <= sim.now:
            degrade()
        else:
            sim.call_at(fault.start, degrade)
        if fault.end is not None:
            sim.call_at(fault.end, restore)

    def _scale_link(self, link: Hashable, multiplier: float) -> None:
        """Compose a capacity multiplier onto a link (windows overlap)."""
        factor = self._link_state.get(link, 1.0) * multiplier
        if abs(factor - 1.0) < 1e-12:
            factor = 1.0
        self._link_state[link] = factor
        self.fabric.set_link_factor(link, factor)

    # -- failure coins ----------------------------------------------------

    def attempt_fails(self, kind: str, task_id: int, attempt: int,
                      salt: int = 0) -> bool:
        """Plan-seeded per-(task, attempt) failure coin."""
        p = self.plan.task_failure_probability
        if p <= 0.0:
            return False
        key = (self.plan.seed * 1_000_003 + task_id * 101 + attempt * 7
               + (0 if kind == "map" else 499_979) + salt * 613_261)
        return random.Random(key ^ 0xFA17B17).random() < p

    def fetch_fails(self, reduce_id: int, map_id: int, attempt: int,
                    salt: int = 0) -> bool:
        """Plan-seeded flaky-fetch coin for one (reducer, map) segment."""
        p = self.plan.fetch_failure_probability
        if p <= 0.0:
            return False
        key = (self.plan.seed * 1_000_003 + reduce_id * 7_907
               + map_id * 104_729 + attempt * 13 + salt * 613_261)
        return random.Random(key ^ 0xF37C4).random() < p

    # -- node liveness ----------------------------------------------------

    def node_dead(self, name: str) -> bool:
        return name in self._dead

    def may_crash(self, name: str) -> bool:
        """True if the plan could still crash this node (schedulers then
        wait on the crash event alongside the slot grant)."""
        return name in self._crash_events

    def crash_event(self, name: str) -> Event:
        return self._crash_events[name]

    def reroute(self, nodes: Sequence["SimNode"], index: int) -> "SimNode":
        """Deterministic placement over the surviving nodes."""
        alive = [n for n in nodes if n.name not in self._dead]
        if not alive:
            from repro.hadoop.runtime import TaskFailedError

            raise TaskFailedError("all cluster nodes have crashed")
        return alive[index % len(alive)]

    def _crash(self, name: str) -> None:
        if name in self._dead:
            return
        self._dead.add(name)
        now = self.sim.now
        record = CrashRecord(node=name, time=now)
        self.report.crashes.append(record)
        victims = list(self._running[name].items())
        self._running[name].clear()
        displaced: Set[Tuple[str, int, int]] = set()
        for proc, info in victims:
            if not proc.is_alive:
                continue
            self._crash_killed.add(proc)
            # Read the attempt's lost-work size BEFORE the kill: a
            # callable (reduce attempts) inspects live shuffle state.
            work = info.work_bytes
            if callable(work):
                work = work()
            proc.kill()
            record.attempts_killed += 1
            self.report.wasted_task_seconds += now - info.started_at
            self.report.reexecuted_bytes += work
            displaced.add((info.kind, info.task_id, info.salt))
        if displaced:
            self._displaced.append((record, displaced))
        else:
            record.recovered_at = now
        # Kills first, then the event: processes blocked on a slot grant
        # observe any grant freed by the kills before the crash wakes
        # them, keeping slot accounting exact (see JobExecution).
        event = self._crash_events.get(name)
        if event is not None and not event.triggered:
            event.succeed()
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.instant("node-crash", CAT_FAULT, name, "fault",
                           attempts_killed=record.attempts_killed)

    # -- lifecycle hooks (called by JobExecution / the shuffle) -----------

    def track_attempt(self, node_name: str, proc: "Process", kind: str,
                      task_id: int, work_bytes: float, salt: int = 0) -> None:
        """Register a launched task attempt as running on a node."""
        self._running[node_name][proc] = _AttemptInfo(
            kind, task_id, salt, self.sim.now, work_bytes
        )

    def untrack_attempt(self, node_name: str, proc: "Process") -> None:
        self._running[node_name].pop(proc, None)

    def was_crash_killed(self, proc: "Process") -> bool:
        """True (once) if this attempt died in a node crash — the
        scheduler retries it elsewhere instead of treating the kill as
        a lost speculative race."""
        try:
            self._crash_killed.remove(proc)
            return True
        except KeyError:
            return False

    def note_failed_attempt(self, kind: str, task_id: int, node_name: str,
                            injected: bool, wasted_seconds: float,
                            work_bytes: float) -> None:
        """Book a coin-failed attempt (plan coin or JobConf coin)."""
        self.report.task_failures += 1
        if injected:
            self.report.injected_task_failures += 1
        self.report.wasted_task_seconds += wasted_seconds
        self.report.reexecuted_bytes += work_bytes
        if injected:
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.instant("injected-failure", CAT_FAULT, node_name,
                               "fault", task=f"{kind}{task_id}")

    def note_fetch_retry(self, nbytes: float) -> None:
        self.report.fetch_retries += 1
        self.report.refetched_bytes += nbytes

    def note_speculative_launch(self) -> None:
        self.report.speculative_launched += 1

    def note_speculative_win(self) -> None:
        self.report.speculative_won += 1

    def task_finished(self, kind: str, task_id: int, node_name: str,
                      salt: int = 0) -> None:
        """Book a successful task completion: closes crash recovery
        windows and drives ``after_tasks`` crash triggers."""
        key = (kind, task_id, salt)
        for record, displaced in self._displaced:
            if key in displaced:
                displaced.discard(key)
                if not displaced and record.recovered_at is None:
                    record.recovered_at = self.sim.now
                    tracer = self.sim.tracer
                    if tracer.enabled:
                        tracer.instant(
                            "crash-recovered", CAT_FAULT, record.node,
                            "fault", recovery_time=record.recovery_time)
        count = self._completed_on.get(node_name, 0) + 1
        self._completed_on[node_name] = count
        spec = self._crash_specs.get(node_name)
        if (spec is not None and spec.after_tasks is not None
                and count >= spec.after_tasks
                and node_name not in self._dead):
            self._crash(node_name)
