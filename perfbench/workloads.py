"""The four benchmark workloads and their output checks.

Each workload drives the program only through public entry points
(``run_campaign``, ``ResultStore``, ``BenchmarkService`` behind a
``BackgroundServer``, ``PoolBackend``), fills a
:class:`~common.Recorder` with timed samples, and checks what the
program returned:

* ``figures-cold`` regenerates every ``benchmarks/campaigns/*.json``
  figure into an empty store, re-reading each one warm after it.
* ``trials-1000`` runs the 1000-point MR-AVG trial campaign cold, then
  warm after the in-process caches are cleared.
* ``service-mix`` runs a closed loop of keep-alive HTTP clients against
  the benchmark service: about 90% warm queries, about 10% cold
  ``wait: true`` queries that both clients ask for.
* ``pool-fig3a`` runs the Fig. 3(a) campaign on a two-worker pool.

Samples: ``setup`` (workload set-up), ``cold`` and ``warm`` (seconds of
one cold or warm operation). Every cold pass starts from a new store
with the in-process caches cleared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import random
import threading
import time
from typing import Dict, List, Sequence, Tuple

from common import (
    DEFAULT_SEED,
    SPEC_DIR,
    BENCH_DIR,
    Recorder,
    clear_program_caches,
    median,
    program_seed,
)

import repro.campaign as campaign_api
from repro.campaign import Campaign, PoolBackend, load_campaigns
from repro.core.suite import clear_result_cache
from repro.service import BackgroundServer, BenchmarkService
from repro.service.query import parse_point_query
from repro.store import ResultStore, dump_record_text

#: Pinned outputs (see ``pins.json``'s ``about``).
PINS = json.loads((BENCH_DIR / "pins.json").read_text())

#: Small job shape shared by the trial, service and join-probe points.
SMALL_PARAMS = {"num_maps": 8, "num_reduces": 4,
                "key_size": 512, "value_size": 512}

#: Expected figures-cold pass shape (8 specs).
FIGURE_POINTS = 117
FIGURE_SIMULATIONS = 102

#: Pool size for pool-fig3a (at most nproc on the 2-core reference).
POOL_WORKERS = 2

#: Warm re-reads per cold pass (figures-cold, pool-fig3a): they are
#: short, so several make a steadier median.
WARM_REPEATS = 5

#: Client threads for service-mix.
SERVICE_CLIENTS = 2

#: Closed-loop rounds per service-mix run (each on a fresh store).
SERVICE_ROUNDS = 3

#: Share of cold ``wait: true`` entries in the service script.
COLD_SHARE = 0.1


# -- inputs ----------------------------------------------------------------

def with_seed(campaign: Campaign, seed: int) -> Campaign:
    """The campaign with ``params.seed`` set from ``--seed``."""
    params = dict(campaign.params, seed=program_seed(seed))
    return dataclasses.replace(campaign, params=params)


def figure_campaigns(seed: int) -> List[Campaign]:
    """Every shipped figure spec, in file order, seeded."""
    campaigns: List[Campaign] = []
    for path in sorted(SPEC_DIR.glob("*.json")):
        campaigns.extend(load_campaigns(path))
    return [with_seed(c, seed) for c in campaigns]


def trials_campaign(seed: int) -> Campaign:
    """1000 points: 5 sizes x 5 networks x 40 trials, 25 simulations.

    The same grid as ``bench_campaign_batch._full_campaign``.
    """
    return with_seed(Campaign(
        name="bench-batch-1000",
        benchmark="MR-AVG",
        shuffle_gbs=(0.05, 0.1, 0.2, 0.4, 0.8),
        networks=("1GigE", "10GigE", "ipoib-qdr", "ipoib-fdr", "rdma"),
        trials=40,
        slaves=2,
        params=dict(SMALL_PARAMS),
    ), seed)


def figure_rows(results) -> List[Tuple[str, str, str]]:
    """``(campaign, label, execution_time.hex())`` of every point."""
    return [(r.campaign.name, p.point.label(), p.result.execution_time.hex())
            for r in results for p in r.points]


def digest(rows: Sequence[Tuple[str, ...]]) -> str:
    """Order-sensitive SHA-256 of the rows."""
    text = "\n".join("|".join(row) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _campaign_ops(rec: Recorder, results) -> None:
    """Count a pass's points; failed and skipped ones count as failed."""
    for result in results:
        rec.operations(len(result.outcomes), result.failed + result.skipped)


# -- figures-cold ----------------------------------------------------------

def figures_cold(rec: Recorder) -> Dict[str, object]:
    """Every figure spec into an empty store, each re-read warm after it.

    The re-reads follow each spec's cold run, so warm samples spread
    over the whole pass. They drop only the in-process result memo (the
    store answers them); the matrix and link-table caches stay shared
    with the specs still to run, as in one uninterrupted pass.
    """
    notes: Dict[str, object] = {}
    for _ in range(3):
        started = time.perf_counter()
        store = ResultStore(rec.new_dir("figures"))
        campaigns = figure_campaigns(rec.seed)
        rec.add("setup", time.perf_counter() - started)
    clear_program_caches()
    cold, cold_seconds, warm_raw, warm_scaled = [], 0.0, 0.0, 0.0
    for campaign in campaigns:
        rec.probe()
        with rec.span(f"cold-{campaign.name}"):
            started = time.perf_counter()
            result = campaign_api.run_campaign(campaign, store=store)
            cold_seconds += time.perf_counter() - started
        cold.append(result)
        rereads = []
        for repeat in range(WARM_REPEATS):
            clear_result_cache()
            with rec.span(f"warm-{campaign.name}.{repeat}"):
                started = time.perf_counter()
                again = campaign_api.run_campaign(campaign, store=store)
                rereads.append(time.perf_counter() - started)
            _campaign_ops(rec, [again])
            rec.check(again.executed == 0
                      and figure_rows([again]) == figure_rows([result]),
                      f"figures-cold: re-reading {campaign.name} simulated "
                      f"or changed its times")
        warm_raw += median(rereads)
        warm_scaled += rec.scale(median(rereads))
    rec.add("cold", cold_seconds)
    rec.add("warm", warm_raw, scaled=warm_scaled)
    _campaign_ops(rec, cold)
    rows = figure_rows(cold)
    notes["digest"] = digest(rows)
    rec.check(len(rows) == FIGURE_POINTS,
              f"figures-cold: {len(rows)} points, expected {FIGURE_POINTS}")
    simulated = sum(r.executed for r in cold)
    rec.check(simulated == FIGURE_SIMULATIONS,
              f"figures-cold: {simulated} simulations, "
              f"expected {FIGURE_SIMULATIONS}")
    if rec.seed == DEFAULT_SEED:
        rec.check(notes["digest"] == PINS["figures_digest"],
                  "figures-cold: digest differs from the pinned one")
    avg = {c.name for c in campaigns if c.benchmark == "MR-AVG"}
    rec.check(digest([r for r in rows if r[0] in avg])
              == PINS["figures_avg_digest"],
              "figures-cold: MR-AVG points differ from the pinned ones")
    report = store.verify()
    rec.check(report.clean, f"figures-cold: store verify found "
                            f"{len(report.problems)} problem(s)")
    return notes


# -- trials-1000 -----------------------------------------------------------

def trials_1000(rec: Recorder) -> Dict[str, object]:
    """The 1000-point trial campaign, cold then warm, per iteration."""
    campaign = trials_campaign(rec.seed)
    pinned = PINS["trials_hex"]
    for index in rec.iterations(minimum=3):
        rec.probe()
        started = time.perf_counter()
        store = ResultStore(rec.new_dir("trials"))
        rec.add("setup", time.perf_counter() - started)
        clear_program_caches()
        with rec.span(f"cold{index}"):
            started = time.perf_counter()
            cold = campaign_api.run_campaign(campaign, store=store)
            rec.add("cold", time.perf_counter() - started)
        clear_program_caches()
        rec.probe()
        with rec.span(f"warm{index}"):
            started = time.perf_counter()
            warm = campaign_api.run_campaign(campaign, store=store)
            rec.add("warm", time.perf_counter() - started)
        _campaign_ops(rec, [cold, warm])
        rec.check(cold.executed == 1000 and cold.unique_simulations == 25,
                  f"trials-1000: cold pass simulated {cold.unique_simulations}"
                  f" for {cold.executed} points, expected 25 for 1000")
        rec.check(warm.executed == 0 and warm.from_store == 1000,
                  f"trials-1000: warm pass simulated {warm.executed}")
        cold_hex = [p.result.execution_time.hex() for p in cold.points]
        warm_hex = [p.result.execution_time.hex() for p in warm.points]
        rec.check(cold_hex == warm_hex,
                  "trials-1000: warm times differ from cold times")
        rec.check(sorted(set(cold_hex)) == pinned,
                  "trials-1000: times differ from the pinned ones")
        store.close()
    return {}


# -- service-mix -----------------------------------------------------------

def service_inputs(seed: int):
    """``(warm campaign, warm bodies, cold bodies, script)`` for a seed.

    Warm points are a 32-point MR-AVG grid seeded into the store before
    the server starts; every cold point is a distinct MR-RAND point.
    The script is shared by both clients, so each cold point is asked
    for twice and the second ask joins the first one's simulation.
    """
    base = program_seed(seed)
    warm = Campaign(
        name="service-warm", benchmark="MR-AVG",
        shuffle_gbs=(0.02, 0.04),
        networks=("1GigE", "10GigE", "ipoib-qdr", "ipoib-fdr"),
        trials=4, slaves=2, params=dict(SMALL_PARAMS, seed=base))
    warm_bodies = [
        json.dumps({"benchmark": "MR-AVG", "shuffle_gb": p.shuffle_gb,
                    "network": p.network, "slaves": 2,
                    "params": dict(SMALL_PARAMS, seed=base),
                    "trial": p.trial}).encode("utf-8")
        for p in warm.points()]
    rng = random.Random(seed)
    script: List[Tuple[str, int]] = []
    cold_bodies: List[bytes] = []
    for _ in range(20000):
        if rng.random() < COLD_SHARE:
            script.append(("cold", len(cold_bodies)))
            cold_bodies.append(json.dumps({
                "benchmark": "MR-RAND",
                "shuffle_gb": rng.choice((0.1, 0.2)),
                "network": rng.choice(("1GigE", "10GigE", "ipoib-qdr")),
                "slaves": 2,
                "params": dict(SMALL_PARAMS,
                               seed=(base + 1 + len(cold_bodies))
                               % 2_000_000_000),
                "wait": True}).encode("utf-8"))
        else:
            script.append(("warm", rng.randrange(len(warm_bodies))))
    return warm, warm_bodies, cold_bodies, script


def _client(address, script, bodies, expected, deadline, out) -> None:
    """One keep-alive client walking the script until the deadline.

    Warm replies are compared on arrival (only the verdict is kept);
    cold replies keep their bytes for the check against the store.
    """
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        for kind, index in script:
            if time.perf_counter() >= deadline:
                break
            started = time.perf_counter()
            conn.request("POST", "/v1/points", body=bodies[kind][index],
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            seconds = time.perf_counter() - started
            if kind == "warm":
                payload = payload == expected[index]
            out.append((kind, index, response.status, seconds, payload))
    finally:
        conn.close()


def _stats(address) -> dict:
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request("GET", "/v1/stats?refresh=1")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def service_mix(rec: Recorder) -> Dict[str, object]:
    """Closed-loop warm/cold query mix over HTTP, several rounds."""
    warm_campaign, warm_bodies, cold_bodies, script = service_inputs(
        rec.seed)
    bodies = {"warm": warm_bodies, "cold": cold_bodies}
    round_seconds = rec.seconds / SERVICE_ROUNDS
    requests = 0
    loop_seconds = 0.0
    for index in range(rec.max_iterations or SERVICE_ROUNDS):
        rec.probe()
        started = time.perf_counter()
        clear_program_caches()
        root = rec.new_dir("service")
        store = ResultStore(root)
        seeded = campaign_api.run_campaign(warm_campaign, store=store)
        expected = [dump_record_text(store.fetch_record(p.key)).encode()
                    for p in seeded.points]
        store.close()
        server = BackgroundServer(BenchmarkService(root)).start()
        rec.add("setup", time.perf_counter() - started)
        _campaign_ops(rec, [seeded])
        try:
            before = _stats(server.address)
            rec.probe()
            outs: List[list] = [[] for _ in range(SERVICE_CLIENTS)]
            with rec.span(f"round{index}"):
                started = time.perf_counter()
                deadline = started + round_seconds
                threads = [threading.Thread(
                    target=_client,
                    args=(server.address, script, bodies, expected,
                          deadline, out))
                    for out in outs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                loop_seconds += time.perf_counter() - started
            after = _stats(server.address)
        finally:
            server.stop()
        replies = [reply for out in outs for reply in out]
        requests += len(replies)
        bad = sum(1 for reply in replies if reply[2] != 200)
        rec.operations(len(replies), bad)
        asked = {point for kind, point, *_ in replies if kind == "cold"}
        store = ResultStore(root)
        canonical = {}
        for point in asked:
            key = parse_point_query(
                {k: v for k, v in json.loads(cold_bodies[point]).items()
                 if k != "wait"}).key
            record = store.fetch_record(key)
            canonical[point] = (dump_record_text(record).encode()
                                if record is not None else None)
        store.close()
        mismatched = 0
        for kind, point, status, seconds, payload in replies:
            if status != 200:
                continue
            if kind == "warm":
                rec.add("warm", seconds)
                mismatched += not payload
            else:
                rec.add("cold", seconds)
                mismatched += payload != canonical[point]
        rec.check(not mismatched, f"service-mix: {mismatched} response "
                                  f"bodies differ from the store's records")
        puts = after["puts"] - before["puts"]
        rec.check(puts == len(asked),
                  f"service-mix: {puts} store puts for {len(asked)} "
                  f"distinct cold points")
        service, earlier = after["service"], before["service"]
        simulated = (service["scheduler"]["cold_units"]
                     - earlier["scheduler"]["cold_units"])
        rec.check(simulated == len(asked),
                  f"service-mix: {simulated} simulations for "
                  f"{len(asked)} distinct cold points")
        for name in ("warm_hits", "cold_misses", "coalesced", "rejected"):
            rec.layer[f"service.{name}"] += service[name] - earlier[name]
    return {"requests": requests, "loop_seconds": loop_seconds}


# -- pool-fig3a ------------------------------------------------------------

def _join(pool: PoolBackend, workers: int) -> None:
    """Run tiny probe units until every spawned worker has said hello."""
    for attempt in range(100):
        if pool.counters["workers_joined"] >= workers:
            return
        probe = Campaign(
            name="pool-join", benchmark="MR-AVG",
            shuffle_gbs=(0.001, 0.002), networks=("1GigE",),
            slaves=2, params=dict(SMALL_PARAMS, seed=attempt))
        clear_program_caches()
        campaign_api.run_campaign(probe, store=None, backend=pool)
    raise RuntimeError(f"only {pool.counters['workers_joined']} of "
                       f"{workers} pool workers joined")


def pool_fig3a(rec: Recorder) -> Dict[str, object]:
    """Fig. 3(a) on a fresh two-worker pool per iteration."""
    fig3a = next(c for c in figure_campaigns(rec.seed) if c.name == "fig3a")
    pinned = PINS["fig3a_hex"]
    for index in rec.iterations(minimum=3):
        clear_program_caches()
        rec.probe()
        started = time.perf_counter()
        store = ResultStore(rec.new_dir("pool"))
        pool = PoolBackend(workers=POOL_WORKERS)
        try:
            pool.ensure_started()
            _join(pool, POOL_WORKERS)
            rec.add("setup", time.perf_counter() - started)
            rec.note("join", time.perf_counter() - started)
            joined = dict(pool.counters)
            clear_program_caches()
            rec.probe()
            with rec.span(f"cold{index}"):
                started = time.perf_counter()
                cold = campaign_api.run_campaign(fig3a, store=store,
                                                 backend=pool)
                wall = time.perf_counter() - started
            rec.add("cold", wall)
            busy = sum(o.wall_time for o in cold.outcomes
                       if o.status == "ok")
            rec.note("busy_frac", busy / (POOL_WORKERS * wall))
            rec.probe()
            warm = []
            for repeat in range(WARM_REPEATS):
                clear_program_caches()
                with rec.span(f"warm{index}.{repeat}"):
                    started = time.perf_counter()
                    warm.append(campaign_api.run_campaign(
                        fig3a, store=store, backend=pool))
                    rec.add("warm", time.perf_counter() - started)
        finally:
            pool.close()
        for name in ("dispatched", "reassignments", "workers_lost",
                     "leases_expired"):
            rec.layer[f"pool.{name}"] += pool.counters[name] - joined[name]
        _campaign_ops(rec, [cold] + warm)
        rec.check(cold.executed == 12 and cold.backend == "pool",
                  f"pool-fig3a: {cold.executed} pooled simulations, "
                  f"expected 12")
        rec.check(sum(w.executed for w in warm) == 0,
                  "pool-fig3a: a warm re-read simulated")
        leases = store.stats()["leases"]
        rec.check(leases == 0, f"pool-fig3a: {leases} leases left")
        rec.check([p.result.execution_time.hex() for p in cold.points]
                  == pinned,
                  "pool-fig3a: times differ from figures-cold's fig3a")
        store.close()
    return {}


WORKLOADS = {
    "figures-cold": figures_cold,
    "trials-1000": trials_1000,
    "service-mix": service_mix,
    "pool-fig3a": pool_fig3a,
}
