"""The micro-benchmark suite runner.

:class:`MicroBenchmarkSuite` is the user-facing entry point: pick a
benchmark (MR-AVG / MR-RAND / MR-SKEW), a cluster, a network, and the
benchmark-level parameters from Sect. 3, then run single jobs or
parameter sweeps. Single-job runs return the simulated framework's
:class:`~repro.hadoop.result.SimJobResult`; sweeps return a
:class:`SweepResult` whose rows regenerate the paper's figures.

Sweep points are independent simulations, so :meth:`~MicroBenchmarkSuite.sweep`
and :meth:`~MicroBenchmarkSuite.run_trials` accept ``jobs=N`` to run
points through :class:`~repro.campaign.executor.CampaignExecutor` on
``N`` local worker processes. Results are returned in the same
deterministic order regardless of ``jobs`` (and each point's
simulation is seeded and self-contained, so the *times* are
bit-identical too — asserted by the integration tests).

Completed points are also memoized in a process-wide cache keyed by the
point's store key (the stable digest of its config, cluster, jobconf,
cost model and fault plan): the figure benchmarks re-run several sweep
points when deriving ratios and summary tables, and those repeats are
answered from the cache.

The memo cache can additionally be *backed* by a persistent
:class:`~repro.store.ResultStore` (``MicroBenchmarkSuite(store=...)``):
memo misses consult the store before simulating, and fresh simulations
are recorded to it — giving warm-start resume across processes. Disk
hits come back as lightweight :class:`~repro.store.StoredResult`
objects (same sweep/report surface, no task stats or event log); the
full caching contract is documented in ``docs/MODEL.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import improvement_pct
from repro.analysis.tables import format_table
from repro.core.benchmarks import MicroBenchmark, get_benchmark
from repro.core.config import TRIAL_SEED_STRIDE, BenchmarkConfig
from repro.faults import FaultPlan
from repro.hadoop.cluster import ClusterSpec, cluster_a
from repro.hadoop.costmodel import CostModel
from repro.hadoop.job import JobConf
from repro.hadoop.result import SimJobResult
from repro.net.transport import TransportModel
from repro.sim.trace import Tracer
from repro.store import (
    ResultStore,
    StoredResult,
    StoreLike,
    as_store,
    point_components,
    point_key,
)

#: What a cached-or-simulated point run returns: a full
#: :class:`SimJobResult` when simulated this process, a
#: :class:`~repro.store.StoredResult` when served from the disk store.
ResultLike = Union[SimJobResult, StoredResult]

BenchmarkLike = Union[str, MicroBenchmark]

#: Process-wide store key -> result memo. Simulations are deterministic
#: functions of the key (fault plans are seeded), so sharing results is
#: safe. It is keyed by the store key rather than the (config, cluster,
#: jobconf, cost model, fault plan) tuple because that tuple compares by
#: value: points differing only in an int/float spelling (``seed`` 7 vs
#: 7.0) are equal tuples but distinct store keys, and must not share an
#: entry.
_RESULT_CACHE: Dict[str, ResultLike] = {}

#: Most results the memo holds before it starts over: far above the
#: 1000 points of the largest shipped campaign, so only a long-lived
#: process (a ``repro serve`` answering distinct cold points) reaches
#: it, and the store still answers whatever the memo dropped.
RESULT_CACHE_LIMIT = 1 << 12

#: Cache bookkeeping for tests/diagnostics.
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Most config objects one suite's store-key cache holds before it
#: starts over (a long-lived suite builds a new config per ``run``).
STORE_KEY_CACHE_LIMIT = 1 << 14


def clear_result_cache() -> None:
    """Drop all memoized sweep results (mainly for tests)."""
    _RESULT_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def result_cache_stats() -> Dict[str, int]:
    """Copy of the memo cache hit/miss counters."""
    return dict(_CACHE_STATS, size=len(_RESULT_CACHE))


def _memoize(key: str, result: ResultLike) -> None:
    """Memoize one result, emptying the memo first when it is full.
    Only single dict operations touch it, so the service's threads
    share it without a lock (concurrent inserts can overshoot the
    limit by one entry per thread)."""
    if len(_RESULT_CACHE) >= RESULT_CACHE_LIMIT:
        _RESULT_CACHE.clear()
    _RESULT_CACHE[key] = result


def load_simulator() -> None:
    """Import everything a cold point runs: numpy, the shuffle matrices,
    the fabric and the Hadoop task models and runtimes.

    The control plane (store, campaign, service, CLI) starts without
    them, and the first simulation imports them. A process about to
    fork workers calls this first, so each worker inherits them instead
    of importing them on its first unit.
    """
    # create_runtime imports the two runtime policies on its first call.
    import repro.hadoop.jobtracker  # noqa: F401
    import repro.hadoop.simulation  # noqa: F401
    import repro.hadoop.yarn  # noqa: F401


def run_simulated_job(config: BenchmarkConfig, **kwargs) -> SimJobResult:
    """:func:`repro.hadoop.simulation.run_simulated_job`, imported on
    the first call (see :func:`load_simulator`)."""
    from repro.hadoop.simulation import run_simulated_job as simulate

    return simulate(config, **kwargs)


def _run_point(payload: tuple) -> SimJobResult:
    """Simulate one :meth:`MicroBenchmarkSuite.point_payload` tuple.

    Top-level so worker processes can run it from a pickled payload.
    """
    config, cluster, jobconf, cost_model, fault_plan = payload
    return run_simulated_job(
        config, cluster=cluster, jobconf=jobconf, cost_model=cost_model,
        fault_plan=fault_plan,
    )


@dataclass
class SweepRow:
    """One (benchmark, network, shuffle size) measurement."""

    benchmark: str
    network: str
    shuffle_gb: float
    execution_time: float
    #: The full result behind the row — a SimJobResult when simulated
    #: in this process, a StoredResult when served from the disk store.
    result: ResultLike = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class SweepResult:
    """A grid of measurements across networks and shuffle sizes."""

    rows: List[SweepRow]

    def networks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.network, None)
        return list(seen)

    def sizes(self) -> List[float]:
        seen: Dict[float, None] = {}
        for row in self.rows:
            seen.setdefault(row.shuffle_gb, None)
        return list(seen)

    def series(self, network: str) -> Tuple[List[float], List[float]]:
        """(shuffle GB, execution time) series for one network."""
        pts = [(r.shuffle_gb, r.execution_time) for r in self.rows
               if r.network == network]
        if not pts:
            raise KeyError(f"no rows for network {network!r}")
        pts.sort()
        return [p[0] for p in pts], [p[1] for p in pts]

    def time(self, network: str, shuffle_gb: float) -> float:
        for row in self.rows:
            if row.network == network and row.shuffle_gb == shuffle_gb:
                return row.execution_time
        raise KeyError(f"no row for ({network!r}, {shuffle_gb} GB)")

    def improvement(self, baseline: str, improved: str,
                    shuffle_gb: Optional[float] = None) -> float:
        """Mean percent improvement of one network over another."""
        sizes = [shuffle_gb] if shuffle_gb is not None else self.sizes()
        pcts = [
            improvement_pct(self.time(baseline, s), self.time(improved, s))
            for s in sizes
        ]
        return sum(pcts) / len(pcts)

    def to_table(self, title: str = "") -> str:
        """Paper-figure-style table: one row per size, one column per
        network."""
        networks = self.networks()
        headers = ["Shuffle (GB)"] + networks
        body = []
        for size in sorted(self.sizes()):
            body.append([size] + [round(self.time(n, size), 1)
                                  for n in networks])
        return format_table(headers, body, title=title)


class MicroBenchmarkSuite:
    """Runs the stand-alone MapReduce micro-benchmarks on a simulated
    cluster.

    Example::

        suite = MicroBenchmarkSuite(cluster=cluster_a(4))
        result = suite.run("MR-AVG", shuffle_gb=16, network="ipoib-qdr")
        print(result.execution_time)
    """

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        jobconf: Optional[JobConf] = None,
        cost_model: Optional[CostModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        store: Optional[StoreLike] = None,
    ):
        self.cluster = cluster if cluster is not None else cluster_a()
        self.jobconf = jobconf
        self.cost_model = cost_model
        #: Applied to every run/sweep point of this suite (seeded, so
        #: sweeps stay deterministic — including under ``jobs=N``).
        self.fault_plan = fault_plan
        #: Persistent result store backing the in-process memo cache
        #: (a root is opened). ``None`` disables disk caching; the memo
        #: cache still applies.
        self.store: Optional[ResultStore] = (
            None if store is None else as_store(store))
        #: ``id(config) -> (config, store key)``. The batch executor
        #: needs a point's key up to three times (keys list, lookup,
        #: record), so it is derived once per config object. The cache
        #: is keyed by identity (the entry keeps the config alive, so
        #: its id stays its own), never by value: equal configs may
        #: spell a field differently (7 vs 7.0), and their keys differ.
        #: The other key components are fixed at construction.
        self._store_key_cache: Dict[int, Tuple[BenchmarkConfig, str]] = {}

    # -- single runs ----------------------------------------------------

    def run_config(
        self,
        config: BenchmarkConfig,
        transport: Optional[TransportModel] = None,
        monitor_interval: Optional[float] = None,
        memoize: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> ResultLike:
        """Run one fully-specified configuration.

        Results are memoized on the point's store key (a digest of the
        full config, cluster, jobconf, cost model and fault plan) unless
        ``memoize=False``. When the
        suite has a :attr:`store`, memo misses consult the disk store
        (returning a :class:`~repro.store.StoredResult` on a hit) and
        fresh simulations are recorded to it. Runs with a custom
        ``transport``, ``monitor_interval`` or ``tracer`` are never
        cached — in memory or on disk: the key cannot capture a
        transport instance, and monitored/traced results carry
        run-specific trace state.
        """
        if (memoize and transport is None and monitor_interval is None
                and tracer is None):
            found = self.lookup_points([config])[0]
            return found if found is not None else self.simulate_point(config)
        return run_simulated_job(
            config,
            cluster=self.cluster,
            jobconf=self.jobconf,
            cost_model=self.cost_model,
            transport=transport,
            monitor_interval=monitor_interval,
            tracer=tracer,
            fault_plan=self.fault_plan,
        )

    # -- point-level execution hooks (campaign executor surface) ---------

    def point_payload(self, config: BenchmarkConfig) -> tuple:
        """The picklable payload that fully determines one point.

        This is exactly what :func:`_run_point` consumes, so an
        external executor (the hardened campaign engine, a future
        distributed runner) can dispatch points to worker processes
        without reaching into suite internals.
        """
        return (config, self.cluster, self.jobconf, self.cost_model,
                self.fault_plan)

    def lookup_points(
        self, configs: Sequence[BenchmarkConfig]
    ) -> List[Optional[ResultLike]]:
        """Serve points from the memo cache or the disk store.

        ``None`` marks a true miss (the point must be simulated). Memo
        misses are resolved against the store through one
        :meth:`~repro.store.ResultStore.get_batch` call (one counter
        bump). Memo and store hits and misses are counted once per
        point, so counter-based acceptance checks ("the second run
        executed 0 simulations") hold on every execution path.
        """
        results: List[Optional[ResultLike]] = [None] * len(configs)
        store_queries: List[Tuple[int, str]] = []
        for i, config in enumerate(configs):
            key = self.store_key(config)
            cached = _RESULT_CACHE.get(key)
            if cached is not None:
                _CACHE_STATS["hits"] += 1
                results[i] = cached
                continue
            _CACHE_STATS["misses"] += 1
            if self.store is not None:
                store_queries.append((i, key))
        if store_queries:
            stored = self.store.get_batch([k for _i, k in store_queries])
            for (i, key), result in zip(store_queries, stored):
                if result is not None:
                    _memoize(key, result)
                    results[i] = result
        return results

    def record_points(
        self, entries: Iterable[Tuple[BenchmarkConfig, ResultLike]]
    ) -> None:
        """Memoize and persist freshly simulated points (one store write).

        The completion half of the executor protocol. The batch
        executor records a whole equivalence class (the
        representative's result replicated onto its siblings) through
        this; ``StoredResult`` values pass through to disk unchanged,
        so replicated records are byte-identical to loop-path records.
        An entry may carry an optional third element — a campaign tags
        dict written with the record (see
        :meth:`~repro.store.ResultStore.put_many`), which turns the
        runner's post-hoc tag pass into a read-only skip for that
        record.
        """
        puts: List[Tuple[str, StoredResult, Optional[dict],
                         Optional[dict]]] = []
        for entry in entries:
            config, result = entry[0], entry[1]
            tags = entry[2] if len(entry) > 2 else None
            key = self.store_key(config)
            _memoize(key, result)
            if self.store is not None:
                stored = (result if isinstance(result, StoredResult)
                          else StoredResult.from_sim_result(result))
                puts.append((key, stored, self._provenance(config), tags))
        if puts and self.store is not None:
            self.store.put_many(puts)

    def simulate_point(self, config: BenchmarkConfig) -> SimJobResult:
        """Simulate one point in-process and record it (no lookup).

        Used after :meth:`lookup_points` missed — by :meth:`run_config`
        and the campaign executor's inline path — so hits and misses
        are counted exactly once per point.
        """
        result = _run_point(self.point_payload(config))
        self.record_points([(config, result)])
        return result

    def store_key(self, config: BenchmarkConfig) -> str:
        """Stable content-addressed store key of one point (hex digest).

        Covers the five components of :meth:`point_payload` plus the
        store schema version; see :func:`repro.store.point_key`. It is
        also the in-process memo's key.
        """
        cached = self._store_key_cache.get(id(config))
        if cached is not None:
            return cached[1]
        key = point_key(config, self.cluster, jobconf=self.jobconf,
                        cost_model=self.cost_model,
                        fault_plan=self.fault_plan)
        if len(self._store_key_cache) >= STORE_KEY_CACHE_LIMIT:
            self._store_key_cache.clear()
        self._store_key_cache[id(config)] = (config, key)
        return key

    def _provenance(self, config: BenchmarkConfig) -> dict:
        """The canonical key document, stored alongside each record."""
        return point_components(config, self.cluster, jobconf=self.jobconf,
                                cost_model=self.cost_model,
                                fault_plan=self.fault_plan)

    def run(
        self,
        benchmark: BenchmarkLike,
        shuffle_gb: Optional[float] = None,
        transport: Optional[TransportModel] = None,
        monitor_interval: Optional[float] = None,
        memoize: bool = True,
        tracer: Optional[Tracer] = None,
        **config_kwargs: object,
    ) -> ResultLike:
        """Run a named benchmark.

        ``shuffle_gb`` sizes the job by total shuffle volume (the
        paper's convention); alternatively pass ``num_pairs`` directly
        in ``config_kwargs``.
        """
        bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        if shuffle_gb is not None:
            config = BenchmarkConfig.from_shuffle_size(
                shuffle_gb * 1e9, pattern=bench.pattern, **config_kwargs)
        else:
            config = bench.configure(**config_kwargs)
        return self.run_config(config, transport=transport,
                               monitor_interval=monitor_interval,
                               memoize=memoize, tracer=tracer)

    # -- sweeps ------------------------------------------------------------

    def sweep(
        self,
        benchmark: BenchmarkLike,
        shuffle_gbs: Sequence[float],
        networks: Sequence[str],
        jobs: int = 1,
        **config_kwargs: object,
    ) -> SweepResult:
        """Execution time across shuffle sizes x networks (Figs. 2-6).

        ``jobs > 1`` runs the grid points on worker processes; row
        order (and every simulated time) is identical to the serial
        run.
        """
        bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        configs = [
            BenchmarkConfig.from_shuffle_size(
                size * 1e9, pattern=bench.pattern, network=network,
                **config_kwargs)
            for size in shuffle_gbs
            for network in networks
        ]
        sizes = [size for size in shuffle_gbs for _network in networks]
        results = self._run_points(
            configs, jobs,
            [f"{size:g} GB {c.network}" for size, c in zip(sizes, configs)])
        rows = [
            SweepRow(
                benchmark=bench.name,
                network=result.interconnect_name,
                shuffle_gb=size,
                execution_time=result.execution_time,
                result=result,
            )
            for size, result in zip(sizes, results)
        ]
        return SweepResult(rows)

    def _run_points(self, configs: Sequence[BenchmarkConfig], jobs: int,
                    labels: Sequence[str]) -> List[ResultLike]:
        """Run many fully-specified points, results in ``configs`` order.

        ``jobs > 1`` runs them through the campaign executor on its
        local backend; siblings that shared a simulation come back as
        ``StoredResult``s, like store hits. A failed point raises
        ``RuntimeError`` after the others are recorded.
        """
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if jobs == 1 or len(configs) < 2:
            return [self.run_config(config) for config in configs]
        # Deferred: repro.campaign.executor imports this module.
        from repro.campaign.executor import CampaignExecutor

        executor = CampaignExecutor(self, jobs=jobs, handle_signals=False)
        report = executor.execute(configs, labels)
        failed = [o for o in report.outcomes if not o.succeeded]
        if failed:
            raise RuntimeError(
                f"{len(failed)} of {len(configs)} point(s) failed; "
                f"{failed[0].label}: {failed[0].error}")
        return [outcome.result for outcome in report.outcomes]

    def compare_patterns(
        self,
        shuffle_gb: float,
        networks: Sequence[str],
        **config_kwargs: object,
    ) -> Dict[str, SweepResult]:
        """All three distribution patterns over the given networks."""
        out = {}
        for name in ("MR-AVG", "MR-RAND", "MR-SKEW"):
            out[name] = self.sweep(name, [shuffle_gb], networks,
                                   **config_kwargs)
        return out

    def run_trials(
        self,
        benchmark: BenchmarkLike,
        trials: int,
        shuffle_gb: Optional[float] = None,
        base_seed: int = BenchmarkConfig.seed,
        jobs: int = 1,
        **config_kwargs: object,
    ) -> List[float]:
        """Run a benchmark ``trials`` times with varied seeds.

        The paper fixes the seed so cross-network comparisons see the
        identical record-to-reducer mapping; this method quantifies how
        much that mapping matters by re-drawing it. For MR-AVG the
        variance is zero by construction (round-robin); for MR-RAND and
        MR-SKEW the spread reflects genuine placement luck. Trial ``t``
        runs with ``base_seed + t * TRIAL_SEED_STRIDE``. Returns the
        execution times, one per trial (trial order; ``jobs > 1`` runs
        trials on worker processes without changing order or values).
        """
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        bench = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        configs = []
        for trial in range(trials):
            seed = base_seed + trial * TRIAL_SEED_STRIDE
            if shuffle_gb is not None:
                config = BenchmarkConfig.from_shuffle_size(
                    shuffle_gb * 1e9, pattern=bench.pattern, seed=seed,
                    **config_kwargs)
            else:
                config = bench.configure(seed=seed, **config_kwargs)
            configs.append(config)
        results = self._run_points(
            configs, jobs, [f"trial {trial}" for trial in range(trials)])
        return [result.execution_time for result in results]
