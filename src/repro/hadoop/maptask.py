"""The simulated map task.

A micro-benchmark map task (Sect. 4.1):

1. task start (JVM spawn, split localization — the split is a dummy);
2. generate the configured pairs in memory, partition and collect them
   into the ``io.sort.mb`` buffer — spilling a sorted run to local disk
   every time the buffer passes ``io.sort.spill.percent``;
3. if more than one spill was written, merge them (``io.sort.factor``
   streams at a time) into the single map-output file the shuffle
   servlet serves.

All CPU segments occupy one of the node's busy cores; all I/O goes
through the page-cache-aware :class:`~repro.hadoop.node.StorageService`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hadoop.costmodel import CostModel
from repro.hadoop.job import JobConf
from repro.hadoop.node import SimNode
from repro.sim.trace import CAT_PHASE, CAT_TASK


@dataclass
class MapOutput:
    """What a finished map publishes to the shuffle service.

    ``segment_bytes`` is what crosses the wire (post-combine,
    post-compression); ``segment_logical_bytes`` is the uncompressed
    volume the reduce-side merge actually processes.
    """

    map_id: int
    node: SimNode
    #: on-wire serialized bytes per reduce partition.
    segment_bytes: np.ndarray
    #: records per reduce partition (post-combine).
    segment_records: np.ndarray
    #: uncompressed serialized bytes per reduce partition.
    segment_logical_bytes: Optional[np.ndarray] = None
    finished_at: float = 0.0

    def __post_init__(self) -> None:
        if self.segment_logical_bytes is None:
            self.segment_logical_bytes = self.segment_bytes

    def bytes_for(self, reduce_id: int) -> float:
        return float(self.segment_bytes[reduce_id])

    def logical_bytes_for(self, reduce_id: int) -> float:
        return float(self.segment_logical_bytes[reduce_id])

    def records_for(self, reduce_id: int) -> int:
        return int(self.segment_records[reduce_id])

    @property
    def total_bytes(self) -> float:
        return float(self.segment_bytes.sum())


@dataclass
class MapTaskStats:
    """Phase timings of one map task (for reports and tests)."""

    map_id: int
    node: str
    started_at: float = 0.0
    finished_at: float = 0.0
    #: when the map-side spill merge began (== ``finished_at`` when a
    #: single spill needed no merge); splits the task into the ``map``
    #: and ``spill_merge`` phases of the breakdown.
    merge_started_at: float = 0.0
    spills: int = 0
    merge_passes: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class MapTask:
    """One simulated map task; drive with ``sim.process(task.run())``."""

    def __init__(
        self,
        map_id: int,
        node: SimNode,
        segment_bytes: np.ndarray,
        segment_records: np.ndarray,
        jobconf: JobConf,
        costs: CostModel,
        start_extra: float = 0.0,
    ):
        self.map_id = map_id
        self.node = node
        self.segment_bytes = segment_bytes
        self.segment_records = segment_records
        self.jobconf = jobconf
        self.costs = costs
        self.start_extra = start_extra
        self.stats = MapTaskStats(map_id=map_id, node=node.name)
        self.output: Optional[MapOutput] = None

    @property
    def total_bytes(self) -> float:
        return float(self.segment_bytes.sum())

    @property
    def total_records(self) -> int:
        return int(self.segment_records.sum())

    def run(self):
        """The map task process (generator for the sim kernel)."""
        sim = self.node.sim
        costs = self.costs
        jobconf = self.jobconf
        self.stats.started_at = sim.now
        tracer = sim.tracer
        lane = f"map{self.map_id}"
        task_span = (
            tracer.begin("map-task", CAT_TASK, self.node.name, lane,
                         map_id=self.map_id)
            if tracer.enabled else None
        )

        yield from self.node.cpu_burst(costs.map_task_start + self.start_extra)

        generated_bytes = self.total_bytes
        generated_records = self.total_records
        # The combiner shrinks records/bytes before they are spilled;
        # compression shrinks bytes on disk and on the wire.
        combined_bytes = generated_bytes * jobconf.combine_fraction
        combined_records = generated_records * jobconf.combine_fraction
        nbytes = combined_bytes * jobconf.wire_fraction
        records = combined_records
        spill_size = jobconf.spill_threshold_bytes
        nspills = max(1, math.ceil(combined_bytes / spill_size))
        self.stats.spills = nspills
        recs_per_spill = records / nspills
        bytes_per_spill = nbytes / nspills

        collect_span = (
            tracer.begin("collect-spill", CAT_PHASE, self.node.name, lane,
                         spills=nspills)
            if tracer.enabled else None
        )
        for _spill in range(nspills):
            # Fill the buffer: generate + partition + collect (full,
            # pre-combine record stream).
            yield from self.node.cpu_burst(
                costs.map_generate_time(
                    generated_records / nspills, generated_bytes / nspills
                )
            )
            if jobconf.streaming:
                # Records cross the pipe to the external mapper and back.
                yield from self.node.cpu_burst(
                    (generated_records / nspills) * costs.cpu_per_record_streaming
                )
            if jobconf.combiner_reduction is not None:
                yield from self.node.cpu_burst(
                    (generated_records / nspills) * costs.cpu_per_record_combine
                )
            # Sort the run and write it out (spill files are transient:
            # the merge below deletes them before they are ever flushed).
            yield from self.node.cpu_burst(
                costs.sort_time(int(recs_per_spill))
            )
            if jobconf.compress_map_output:
                yield from self.node.cpu_burst(
                    (combined_bytes / nspills) * costs.cpu_per_byte_compress
                )
            # A lone spill *is* the final map output and persists;
            # multi-spill runs are deleted by the merge below.
            yield self.node.storage.write(
                bytes_per_spill, transient=(nspills > 1)
            )
        if collect_span is not None:
            collect_span.end()
        self.stats.merge_started_at = sim.now

        if nspills > 1:
            merge_span = (
                tracer.begin("spill-merge", CAT_PHASE, self.node.name, lane)
                if tracer.enabled else None
            )
            # Hadoop merges intermediate rounds only while more than
            # ``io.sort.factor`` runs remain; the extra I/O is the slice
            # of data that participates in those early rounds.
            factor = self.jobconf.sort_factor
            extra_fraction = max(0.0, (nspills - factor) / nspills)
            self.stats.merge_passes = 1 + (1 if extra_fraction > 0 else 0)
            read_bytes = nbytes * (1.0 + extra_fraction)
            read_done = self.node.storage.read(read_bytes, transient=True)
            # Intermediate merged runs are transient; the final merged
            # map-output file persists for the shuffle servlet.
            inter_done = self.node.storage.write(
                nbytes * extra_fraction, transient=True
            )
            write_done = self.node.storage.write(nbytes)
            # Merge CPU overlaps the I/O: do the CPU burst, then wait
            # for whichever of the streams is still behind.
            yield from self.node.cpu_burst(
                costs.map_merge_time(records) * (1.0 + extra_fraction)
            )
            yield read_done
            yield inter_done
            yield write_done
            if merge_span is not None:
                merge_span.end()

        self.stats.finished_at = sim.now
        if task_span is not None:
            task_span.end(spills=self.stats.spills)
        scale = jobconf.combine_fraction
        self.output = MapOutput(
            map_id=self.map_id,
            node=self.node,
            segment_bytes=self.segment_bytes * scale * jobconf.wire_fraction,
            segment_records=(self.segment_records * scale).astype(np.int64),
            segment_logical_bytes=self.segment_bytes * scale,
            finished_at=sim.now,
        )
        return self.output
