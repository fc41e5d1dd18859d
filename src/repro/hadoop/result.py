"""The result of one simulated job, including its phase decomposition.

The paper's headline metric is the scalar job time, but its figures are
really *per-phase* stories (map, shuffle, merge, reduce under five
interconnects), so :class:`SimJobResult` also exposes a structured
:meth:`~SimJobResult.phase_breakdown`: per-task and per-node seconds in
each of the five phases (``map``, ``spill_merge``, ``shuffle``,
``merge``, ``reduce``), derived from the task stats the simulated
framework records. When the job ran with a
:class:`~repro.sim.trace.Tracer`, the full span-level trace is carried
in :attr:`~SimJobResult.trace` for Chrome ``trace_event`` export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.config import BenchmarkConfig
from repro.faults import ResilienceReport
from repro.hadoop.cluster import ClusterSpec
from repro.hadoop.events_log import JobEventLog
from repro.hadoop.job import JobConf
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # simulator types: the store reads this module too
    from repro.core.matrix import ShuffleMatrix
    from repro.hadoop.maptask import MapTaskStats
    from repro.hadoop.reducetask import ReduceTaskStats
    from repro.sim.monitor import ResourceMonitor

#: The five phases of the decomposition, in pipeline order.
PHASES = ("map", "spill_merge", "shuffle", "merge", "reduce")


@dataclass
class TaskPhaseRow:
    """Per-phase seconds of one task (map or reduce)."""

    task: str
    node: str
    phases: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class PhaseBreakdown:
    """The job's per-phase decomposition (per task, per node, total).

    Built by :meth:`SimJobResult.phase_breakdown`. Phase seconds are
    *task-time*: each task's wall interval split over the five phases,
    so one task's phases sum to its duration exactly (asserted by
    :meth:`consistent`). Because tasks overlap, the job-level totals
    are task-seconds, not wall seconds; the wall-clock windows are
    carried separately (``map_phase_end``, ``first_reduce_start``,
    ``execution_time``).
    """

    rows: List[TaskPhaseRow]
    execution_time: float
    map_phase_end: float
    first_reduce_start: float

    def totals(self) -> Dict[str, float]:
        """Task-seconds summed over all tasks, per phase."""
        out = {phase: 0.0 for phase in PHASES}
        for row in self.rows:
            for phase, seconds in row.phases.items():
                out[phase] += seconds
        return out

    def by_node(self) -> Dict[str, Dict[str, float]]:
        """Task-seconds per node, per phase (node order preserved)."""
        out: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            node = out.setdefault(row.node,
                                  {phase: 0.0 for phase in PHASES})
            for phase, seconds in row.phases.items():
                node[phase] += seconds
        return out

    def consistent(self, durations: Dict[str, float],
                   rel: float = 1e-9) -> bool:
        """Every task's phase sum matches its recorded duration."""
        for row in self.rows:
            want = durations[row.task]
            tol = rel * max(1.0, abs(want))
            if abs(row.total - want) > tol:
                return False
        return True


@dataclass
class SimJobResult:
    """Everything a finished simulated job reports.

    ``execution_time`` is the paper's headline metric — wall-clock job
    time, including the fixed job setup/cleanup overhead.
    """

    config: BenchmarkConfig
    cluster: ClusterSpec
    jobconf: JobConf
    interconnect_name: str
    transport_name: str
    execution_time: float
    map_phase_end: float
    first_reduce_start: float
    map_stats: List[MapTaskStats]
    reduce_stats: List[ReduceTaskStats]
    matrix: ShuffleMatrix
    events: JobEventLog
    monitor: Optional[ResourceMonitor] = None
    #: The structured phase trace, when the job ran with a tracer.
    trace: Optional[Tracer] = None
    #: What fault injection did to this run (``None`` on healthy runs).
    resilience: Optional[ResilienceReport] = None

    @property
    def total_shuffle_bytes(self) -> int:
        return self.matrix.total_bytes

    @property
    def slowest_reduce(self) -> ReduceTaskStats:
        return max(self.reduce_stats, key=lambda s: s.finished_at)

    @property
    def reduce_phase_time(self) -> float:
        """Time from the first reducer launch to the last reducer finish."""
        return self.slowest_reduce.finished_at - self.first_reduce_start

    def breakdown(self) -> Dict[str, float]:
        """Coarse phase decomposition of the job time."""
        shuffle_time = max(
            (s.shuffle_duration for s in self.reduce_stats), default=0.0
        )
        reduce_time = max(
            (s.reduce_duration for s in self.reduce_stats), default=0.0
        )
        return {
            "execution_time": self.execution_time,
            "map_phase": self.map_phase_end,
            "slowest_shuffle": shuffle_time,
            "slowest_reduce_fn": reduce_time,
        }

    def phase_breakdown(self) -> PhaseBreakdown:
        """Structured per-task phase decomposition.

        Map tasks split into ``map`` (generate + partition + spill) and
        ``spill_merge`` (the map-side multi-spill merge); reduce tasks
        split into ``shuffle`` (startup + fetch window), ``merge``
        (exposed shuffle-merge + sort + final merge) and ``reduce``
        (the reduce function). Each task's phases sum to its duration.
        """
        rows: List[TaskPhaseRow] = []
        for m in self.map_stats:
            rows.append(TaskPhaseRow(
                task=f"map{m.map_id}",
                node=m.node,
                phases={
                    "map": m.merge_started_at - m.started_at,
                    "spill_merge": m.finished_at - m.merge_started_at,
                    "shuffle": 0.0,
                    "merge": 0.0,
                    "reduce": 0.0,
                },
            ))
        for r in self.reduce_stats:
            rows.append(TaskPhaseRow(
                task=f"reduce{r.reduce_id}",
                node=r.node,
                phases={
                    "map": 0.0,
                    "spill_merge": 0.0,
                    "shuffle": r.fetch_finished_at - r.started_at,
                    "merge": r.merge_finished_at - r.fetch_finished_at,
                    "reduce": r.finished_at - r.merge_finished_at,
                },
            ))
        return PhaseBreakdown(
            rows=rows,
            execution_time=self.execution_time,
            map_phase_end=self.map_phase_end,
            first_reduce_start=self.first_reduce_start,
        )

    def task_durations(self) -> Dict[str, float]:
        """Task name -> wall duration (for consistency checks)."""
        out: Dict[str, float] = {}
        for m in self.map_stats:
            out[f"map{m.map_id}"] = m.duration
        for r in self.reduce_stats:
            out[f"reduce{r.reduce_id}"] = r.duration
        return out

    def summary(self) -> Dict[str, object]:
        """Flat summary row (benchmark harness / CSV output)."""
        return {
            "benchmark": f"MR-{self.config.pattern.upper()}",
            "network": self.interconnect_name,
            "version": self.jobconf.version,
            "slaves": self.cluster.num_slaves,
            "maps": self.config.num_maps,
            "reduces": self.config.num_reduces,
            "data_type": self.config.data_type,
            "pair_size": self.config.pair_size,
            "shuffle_gb": self.total_shuffle_bytes / 1e9,
            "execution_time_s": round(self.execution_time, 2),
        }
