"""Traced mode: span wrappers around the program's layer boundaries.

Only ``run.py --trace 1`` imports this module. :func:`install` wraps
public functions of each layer from the outside (patching a function
where its caller imported it by name), and every call becomes one span
in memory: ``(id, name, start, end, parent, run)``. Parents come from a
per-thread stack, so a span's children are the wrapped calls it made on
its own thread. :func:`layer_metrics` turns the spans into the
per-layer metrics, and :meth:`Tracer.write` saves them when the run
ends.

Only this process is traced. Pool workers simulate in their own
processes, so pool-fig3a's sim, net and hadoop figures read 0; the same
Fig. 3(a) jobs run inline, and are traced, in figures-cold.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from common import median, percentile

#: Run id of calls made outside every timed pass.
SETUP = "setup"

#: Span name prefix -> layer (the table's first column).
LAYERS = {
    "sim": "repro.sim",
    "net": "repro.net",
    "hadoop": "repro.hadoop",
    "core": "repro.core",
    "store": "repro.store",
    "campaign": "repro.campaign",
    "wire": "repro.campaign.pool",
    "service": "repro.service",
    "bench": "benchmark",
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        #: ``(id, name, start, end, parent, run, extra)`` per finished call.
        self.spans: List[tuple] = []
        #: ``(run, name) -> n``: counters kept at the same boundaries.
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        #: ``(run, CampaignResult)`` of every traced ``run_campaign``.
        self.campaigns: List[tuple] = []
        #: The pass that spans ending now belong to; calls made outside
        #: any timed pass (set-up, seeding, pool join probes) keep
        #: :data:`SETUP` and are left out of the per-layer metrics.
        self.run_id = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             extra: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``extra(result, *args)``
        annotates it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                stack.pop()
            note = extra(result, *args, **kwargs) if extra else None
            tracer.spans.append((span_id, name, started, ended, parent,
                                 tracer.run_id, note))
            return result

        return traced

    @contextlib.contextmanager
    def root(self, run_id: str):
        """A ``bench.pass`` span that parents one timed pass."""
        self.run_id = run_id
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        started = perf_counter()
        try:
            yield
        finally:
            ended = perf_counter()
            stack.pop()
            self.spans.append((span_id, "bench.pass", started, ended,
                               parent, run_id, None))
            self.run_id = SETUP

    def measured(self) -> List[tuple]:
        """Spans of the timed passes (set-up work left out)."""
        return [span for span in self.spans if span[5] != SETUP]

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter of the current pass."""
        self.counts[self.run_id, name] += n

    def measured_count(self, name: str) -> int:
        """A counter summed over the timed passes."""
        return sum(n for (run, counter), n in self.counts.items()
                   if counter == name and run != SETUP)

    def replace(self, owner: object, attr: str, new: object) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner: object, attr: str, name: str,
              extra: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its traced form."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), extra))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, run, _ in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "run": run}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    import repro.campaign as campaign_api
    import repro.campaign.executor as executor_mod
    import repro.campaign.pool as pool_mod
    import repro.core.suite as suite_mod
    import repro.hadoop.simulation as simulation_mod
    import repro.net.fabric as fabric_mod
    import repro.service.app as app_mod
    import repro.service.query as query_mod
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.wire import FrameDecoder, encode_message
    from repro.service import BenchmarkService
    from repro.sim.kernel import Simulator
    from repro.store import ResultStore

    def keep_campaign(result, *_args, **_kwargs):
        tracer.campaigns.append((tracer.run_id, result))

    def sized(result, *_args, **_kwargs):
        return len(result)

    def one(_result, *_args, **_kwargs):
        return 1

    def query_kind(_result, _service, body, *_args, **_kwargs):
        wait = isinstance(body, dict) and body.get("wait")
        return "cold" if wait else "warm"

    def dispatch_kind(_result, _service, _method, _target, body):
        return "cold" if b'"wait"' in body else "warm"

    def frame_bytes(_result, _sock, message):
        return len(encode_message(message))

    def fed_bytes(_result, _decoder, data):
        return len(data)

    tracer.patch(campaign_api, "run_campaign", "campaign.run",
                 keep_campaign)
    tracer.patch(CampaignExecutor, "execute", "campaign.execute")
    tracer.patch(executor_mod, "plan_batches", "campaign.plan")
    tracer.patch(executor_mod, "precompute_matrices", "core.precompute",
                 lambda computed, *_a, **_k: computed)
    tracer.patch(simulation_mod, "compute_shuffle_matrix", "core.matrix")
    tracer.patch(suite_mod, "run_simulated_job", "hadoop.job",
                 lambda result, *_a, **_k: result.execution_time)
    tracer.patch(fabric_mod.NetworkFabric, "start_flow", "net.flow")
    tracer.patch(fabric_mod, "solve_max_min_grouped", "net.solve")
    tracer.patch(suite_mod, "point_key", "store.key")
    tracer.patch(query_mod, "point_key", "store.key")
    tracer.patch(ResultStore, "get", "store.read", one)
    tracer.patch(ResultStore, "get_batch", "store.read", sized)
    tracer.patch(ResultStore, "fetch_record", "store.read", one)
    tracer.patch(ResultStore, "put", "store.write", one)
    tracer.patch(ResultStore, "put_many", "store.write", sized)
    tracer.patch(ResultStore, "tag", "store.tag")
    tracer.patch(ResultStore, "tag_many", "store.tag")
    tracer.patch(pool_mod, "send_message", "wire.send", frame_bytes)
    tracer.patch(FrameDecoder, "feed", "wire.feed", fed_bytes)
    tracer.patch(BenchmarkService, "query_point", "service.query",
                 query_kind)
    tracer.patch(app_mod, "dispatch", "service.dispatch", dispatch_kind)

    # The kernel loop, counting the events each call processed.
    run_until_event = Simulator.run_until_event

    def counted_run(sim, event):
        before = sim.events_processed
        try:
            return run_until_event(sim, event)
        finally:
            tracer.count("sim.events", sim.events_processed - before)

    tracer.replace(Simulator, "run_until_event",
                   tracer.wrap("sim.run", counted_run))

    # Frames the coordinator decoded (a generator, so count as yielded).
    drain = FrameDecoder.drain

    def counted_drain(decoder):
        for message in drain(decoder):
            tracer.count("wire.frames_in")
            yield message

    tracer.replace(FrameDecoder, "drain", counted_drain)


# -- per-layer metrics -----------------------------------------------------

#: Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.us_per_event", "us"),
    ("net.flows", "count"), ("net.solves", "count"),
    ("net.solve_s", "s"), ("net.solves_per_flow", "ratio"),
    ("hadoop.jobs", "count"), ("hadoop.job_s", "s"),
    ("hadoop.job_self_s", "s"), ("hadoop.job_p50_ms", "ms"),
    ("hadoop.job_p90_ms", "ms"), ("hadoop.sim_speed", "s/s"),
    ("core.matrices", "count"), ("core.matrix_s", "s"),
    ("store.keys", "count"), ("store.key_s", "s"),
    ("store.reads", "count"), ("store.read_s", "s"),
    ("store.writes", "count"), ("store.write_s", "s"),
    ("store.write_ms_per_record", "ms"), ("store.tag_s", "s"),
    ("campaign.points", "count"), ("campaign.simulated", "count"),
    ("campaign.unique", "count"), ("campaign.collapse_ratio", "ratio"),
    ("campaign.plan_s", "s"), ("campaign.retries", "count"),
    ("campaign.failed", "count"), ("campaign.self_s", "s"),
    ("pool.join_s", "s"), ("pool.dispatched", "count"),
    ("pool.reassignments", "count"), ("pool.workers_lost", "count"),
    ("pool.leases_expired", "count"), ("pool.busy_frac", "ratio"),
    ("wire.frames", "count"), ("wire.bytes", "B"),
    ("service.query_p50_ms", "ms"), ("service.http_p50_ms", "ms"),
    ("service.cold_wait_p50_ms", "ms"), ("service.coalesce_ratio", "ratio"),
    ("service.warm_hits", "count"), ("service.cold_misses", "count"),
    ("service.rejected", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: List[tuple]) -> Dict[int, float]:
    """Span id -> its duration minus its children's durations."""
    children: Dict[int, float] = defaultdict(float)
    for _id, _name, start, end, parent, _run, _note in spans:
        if parent:
            children[parent] += end - start
    return {span[0]: span[3] - span[2] - children[span[0]]
            for span in spans}


def layer_self(spans: List[tuple]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[LAYERS[span[1].split(".", 1)[0]]] += selfs[span[0]]
    return out


def layer_metrics(tracer: Tracer, rec) -> Dict[str, float]:
    """Every per-layer metric from one traced phase."""
    spans = tracer.measured()
    selfs = self_times(spans)
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name[name])

    def self_total(*names: str) -> float:
        return sum(selfs[s[0]] for n in names for s in by_name[n])

    def notes(name: str) -> float:
        return sum(s[6] or 0 for s in by_name[name])

    def p50_ms(name: str, kind: str) -> float:
        durations = [s[3] - s[2] for s in by_name[name] if s[6] == kind]
        return 1000.0 * median(durations) if durations else 0.0

    jobs = [s[3] - s[2] for s in by_name["hadoop.job"]]
    events = tracer.measured_count("sim.events")
    flows = len(by_name["net.flow"])
    solves = len(by_name["net.solve"])
    writes = notes("store.write")
    campaigns = [c for run, c in tracer.campaigns if run != SETUP]
    outcomes = [o for c in campaigns for o in c.outcomes]
    simulated = sum(c.executed for c in campaigns)
    unique = sum(c.unique_simulations for c in campaigns)
    warm_client = rec.samples.get("raw_warm", [])
    service_p50 = p50_ms("service.query", "warm")
    dispatch_p50 = p50_ms("service.dispatch", "warm")
    layer = rec.layer
    coalesced = layer["service.coalesced"]
    return {
        "sim.events": events,
        "sim.us_per_event": 1e6 * _ratio(self_total("sim.run"), events),
        "net.flows": flows,
        "net.solves": solves,
        "net.solve_s": total("net.solve"),
        "net.solves_per_flow": _ratio(solves, flows),
        "hadoop.jobs": len(jobs),
        "hadoop.job_s": sum(jobs),
        "hadoop.job_self_s": self_total("hadoop.job"),
        "hadoop.job_p50_ms": 1000.0 * median(jobs) if jobs else 0.0,
        "hadoop.job_p90_ms": 1000.0 * percentile(jobs, 90) if jobs else 0.0,
        "hadoop.sim_speed": _ratio(notes("hadoop.job"), sum(jobs)),
        "core.matrices": notes("core.precompute"),
        "core.matrix_s": total("core.precompute") + total("core.matrix"),
        "store.keys": len(by_name["store.key"]),
        "store.key_s": total("store.key"),
        "store.reads": notes("store.read"),
        "store.read_s": total("store.read"),
        "store.writes": writes,
        "store.write_s": total("store.write"),
        "store.write_ms_per_record": 1000.0 * _ratio(
            total("store.write"), writes),
        "store.tag_s": total("store.tag"),
        "campaign.points": len(outcomes),
        "campaign.simulated": simulated,
        "campaign.unique": unique,
        "campaign.collapse_ratio": _ratio(unique, simulated),
        "campaign.plan_s": total("campaign.plan"),
        "campaign.retries": sum(max(0, o.attempts - 1) for o in outcomes),
        "campaign.failed": sum(c.failed + c.skipped for c in campaigns),
        "campaign.self_s": self_total("campaign.run", "campaign.execute",
                                      "campaign.plan"),
        "pool.join_s": _median_or_zero(rec.samples.get("join")),
        "pool.dispatched": layer["pool.dispatched"],
        "pool.reassignments": layer["pool.reassignments"],
        "pool.workers_lost": layer["pool.workers_lost"],
        "pool.leases_expired": layer["pool.leases_expired"],
        "pool.busy_frac": _median_or_zero(rec.samples.get("busy_frac")),
        "wire.frames": len(by_name["wire.send"])
        + tracer.measured_count("wire.frames_in"),
        "wire.bytes": notes("wire.send") + notes("wire.feed"),
        "service.query_p50_ms": service_p50,
        "service.http_p50_ms": (1000.0 * median(warm_client) - dispatch_p50
                                if warm_client and dispatch_p50 else 0.0),
        "service.cold_wait_p50_ms": _cold_wait_p50_ms(by_name),
        "service.coalesce_ratio": _ratio(
            coalesced, coalesced + layer["service.cold_misses"]),
        "service.warm_hits": layer["service.warm_hits"],
        "service.cold_misses": layer["service.cold_misses"],
        "service.rejected": layer["service.rejected"],
    }


def _median_or_zero(values: Optional[List[float]]) -> float:
    return median(values) if values else 0.0


def _cold_wait_p50_ms(by_name: Dict[str, List[tuple]]) -> float:
    """Median time a cold query spent outside the pass that served it.

    The serving pass is the last ``CampaignExecutor.execute`` span to end
    before the query returned; the query's wait is its duration minus
    the part of that pass it overlapped (queueing before the pass and
    the store read after it).
    """
    passes = sorted((s[3], s[2]) for s in by_name["campaign.execute"])
    waits = []
    for s in by_name["service.query"]:
        if s[6] != "cold":
            continue
        start, end = s[2], s[3]
        served = [p for p in passes if p[0] <= end]
        if not served:
            continue
        pass_end, pass_start = served[-1]
        overlap = max(0.0, min(end, pass_end) - max(start, pass_start))
        waits.append(end - start - overlap)
    return 1000.0 * median(waits) if waits else 0.0
