"""Command-line drivers: ``mr-microbench`` and ``repro``.

``mr-microbench`` mirrors the paper suite's invocation style: pick a
micro-benchmark and the benchmark/framework parameters, get the
configuration echo, resource-utilization statistics and the job
execution time. ``--store DIR`` backs the run with the persistent
result store (or set ``$REPRO_STORE``); ``--no-store`` disables it.

``repro`` is the campaign/store/book toolchain built on
:mod:`repro.store`, :mod:`repro.campaign` and
:mod:`repro.analysis.book`.

Examples::

    mr-microbench --benchmark MR-AVG --shuffle-gb 16 --network ipoib-qdr
    mr-microbench --benchmark MR-SKEW --network 1gige --maps 16 --reduces 8
    mr-microbench --benchmark MR-RAND --data-type Text --monitor 2
    mr-microbench --sweep 4,8,16 --networks 1gige,ipoib-qdr --store .repro-store

    repro campaign run benchmarks/campaigns/fig2.json --store .repro-store
    repro store stats --store .repro-store
    repro book out/book --store .repro-store
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.benchmarks import EXTENDED_BENCHMARKS
from repro.core.config import SUPPORTED_DATA_TYPES, BenchmarkConfig
from repro.core.report import (render_phase_table, render_report,
                               render_stored_report)
from repro.core.suite import MicroBenchmarkSuite
from repro.hadoop.cluster import cluster_a, cluster_b
from repro.hadoop.job import JobConf
from repro.hadoop.runtime import available_runtimes
from repro.net.interconnect import INTERCONNECTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mr-microbench",
        description=(
            "Stand-alone Hadoop MapReduce micro-benchmark suite "
            "(simulated reproduction of Shankar et al., BPOE 2014)"
        ),
    )
    parser.add_argument(
        "--benchmark", default="MR-AVG",
        choices=sorted({b.name for b in EXTENDED_BENCHMARKS}),
        help="distribution pattern micro-benchmark to run",
    )
    parser.add_argument(
        "--workload", default=None,
        help="run a real-world workload profile instead of a raw "
             "benchmark (wordcount, terasort, inverted-index, "
             "session-aggregation, hash-join); overrides --benchmark, "
             "key/value sizes and data type",
    )
    parser.add_argument("--network", default="1GigE",
                        help="interconnect, by canonical name or alias "
                             f"({', '.join(sorted(INTERCONNECTS))})")
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--shuffle-gb", type=float, default=None,
                      help="total intermediate shuffle data size in GB")
    size.add_argument("--num-pairs", type=int, default=None,
                      help="total key/value pairs to generate")
    parser.add_argument("--key-size", type=int, default=512,
                        help="key payload bytes")
    parser.add_argument("--value-size", type=int, default=512,
                        help="value payload bytes")
    parser.add_argument("--data-type", default="BytesWritable",
                        choices=SUPPORTED_DATA_TYPES,
                        help="Writable type for keys and values")
    parser.add_argument("--maps", type=int, default=16,
                        help="number of map tasks")
    parser.add_argument("--reduces", type=int, default=8,
                        help="number of reduce tasks")
    parser.add_argument("--seed", type=int, default=20140901)
    parser.add_argument("--cluster", default="a", choices=("a", "b"),
                        help="testbed: a=Westmere, b=Stampede")
    parser.add_argument("--slaves", type=int, default=None,
                        help="number of slave nodes (default: paper setup)")
    parser.add_argument("--framework", default="mrv1",
                        choices=available_runtimes(),
                        help="Hadoop runtime generation (1.x slots or "
                             "2.x YARN), from the runtime registry")
    parser.add_argument("--monitor", type=float, default=None, metavar="SEC",
                        help="sample CPU/network utilization every SEC "
                             "simulated seconds")
    parser.add_argument("--sweep", default=None, metavar="GB,GB,...",
                        help="sweep mode: comma-separated shuffle sizes in "
                             "GB; prints a size x network table instead of "
                             "a single-run report")
    parser.add_argument("--networks", default=None, metavar="NET,NET,...",
                        help="networks for --sweep (default: the single "
                             "--network)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run sweep points on N worker processes "
                             "(results are identical to -j 1)")
    parser.add_argument("--csv", default=None, metavar="PATH",
                        help="also write the sweep as CSV to PATH")
    parser.add_argument("--timeline", action="store_true",
                        help="print an ASCII Gantt chart of all tasks")
    parser.add_argument("--history-json", default=None, metavar="PATH",
                        help="write the job history record as JSON to PATH")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record the structured phase trace and write "
                             "it as Chrome trace_event JSON to PATH "
                             "(viewable in Perfetto)")
    parser.add_argument("--phase-report", action="store_true",
                        help="print the per-node phase breakdown table "
                             "(map / spill-merge / shuffle / merge / reduce)")
    faults = parser.add_argument_group(
        "fault injection",
        "deterministic, seeded fault injection (see docs/MODEL.md); "
        "flags layer on top of --fault-plan",
    )
    faults.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                        help="inject faults from a JSON FaultPlan file")
    faults.add_argument("--task-failure-prob", type=float, default=None,
                        metavar="P",
                        help="per-attempt task failure probability "
                             "(seeded coin, 0 <= P < 1)")
    faults.add_argument("--kill-node", action="append", default=None,
                        metavar="NODE@T",
                        help="crash NODE at simulated time T seconds "
                             "(repeatable, e.g. slave1@30)")
    faults.add_argument("--slow-node", action="append", default=None,
                        metavar="NODE:FACTOR",
                        help="slow NODE's CPU and NIC by FACTOR "
                             "(repeatable, e.g. slave0:2)")
    caching = parser.add_argument_group(
        "result caching",
        "persistent content-addressed result store (docs/MODEL.md, "
        "'The caching contract')",
    )
    caching.add_argument("--store", default=None, metavar="ROOT",
                         help="back runs with the persistent result store "
                              "at ROOT: a directory, or sqlite:PATH for "
                              "a database file (default: $REPRO_STORE "
                              "when set)")
    caching.add_argument("--no-store", action="store_true",
                         help="disable the disk store even if "
                              "$REPRO_STORE is set")
    return parser


def _store_from_args(args):
    """The ResultStore selected by --store/--no-store/$REPRO_STORE."""
    from repro.store import ResultStore, default_store_root

    if getattr(args, "no_store", False):
        return None
    root = args.store if args.store is not None else default_store_root()
    return ResultStore(root) if root else None


def _build_fault_plan(args):
    """Assemble the run's FaultPlan from --fault-plan plus flag-level
    faults; returns ``None`` when nothing is injected."""
    from repro.faults import FaultPlan, NodeCrash, SlowNode

    plan = (FaultPlan.load(args.fault_plan) if args.fault_plan
            else FaultPlan())
    crashes = []
    for spec in args.kill_node or ():
        node, sep, at = spec.partition("@")
        if not node or not sep:
            raise ValueError(
                f"--kill-node expects NODE@TIME (e.g. slave1@30), got {spec!r}"
            )
        try:
            when = float(at)
        except ValueError:
            raise ValueError(
                f"--kill-node time must be a number, got {at!r}"
            ) from None
        crashes.append(NodeCrash(node, at_time=when))
    slows = []
    for spec in args.slow_node or ():
        node, sep, factor = spec.partition(":")
        if not node or not sep:
            raise ValueError(
                f"--slow-node expects NODE:FACTOR (e.g. slave0:2), got {spec!r}"
            )
        try:
            slowdown = float(factor)
        except ValueError:
            raise ValueError(
                f"--slow-node factor must be a number, got {factor!r}"
            ) from None
        slows.append(SlowNode(node, cpu_factor=slowdown,
                              nic_factor=slowdown))
    plan = plan.with_overrides(
        task_failure_probability=args.task_failure_prob,
        node_crashes=crashes,
        slow_nodes=slows,
    )
    return None if plan.is_noop() else plan


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    factory = cluster_a if args.cluster == "a" else cluster_b
    cluster = factory(args.slaves) if args.slaves else factory()
    jobconf = JobConf(version=args.framework)
    try:
        fault_plan = _build_fault_plan(args)
        # --timeline / --history-json need a live SimJobResult (task
        # events, full history); a warm store hit only carries the
        # durable subset.
        store = (None if (args.timeline or args.history_json)
                 else _store_from_args(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    suite = MicroBenchmarkSuite(cluster=cluster, jobconf=jobconf,
                                fault_plan=fault_plan, store=store)

    pattern = args.benchmark.split("-")[1].lower()
    common = dict(
        pattern=pattern,
        key_size=args.key_size,
        value_size=args.value_size,
        num_maps=args.maps,
        num_reduces=args.reduces,
        data_type=args.data_type,
        seed=args.seed,
    )
    tracer = None
    if args.trace is not None:
        from repro.sim.trace import Tracer

        tracer = Tracer()
    try:
        if args.workload is not None:
            from repro.core.workloads import get_workload

            profile = get_workload(args.workload)
            shuffle_gb = args.shuffle_gb if args.shuffle_gb is not None else 4.0
            config = profile.configure(
                shuffle_gb=shuffle_gb,
                num_maps=args.maps,
                num_reduces=args.reduces,
                network=args.network,
                seed=args.seed,
            )
        elif args.sweep is not None:
            return _run_sweep(suite, args, common)
        elif args.num_pairs is not None:
            config = BenchmarkConfig(num_pairs=args.num_pairs,
                                     network=args.network, **common)
        else:
            shuffle_gb = args.shuffle_gb if args.shuffle_gb is not None else 4.0
            config = BenchmarkConfig.from_shuffle_size(
                shuffle_gb * 1e9, network=args.network, **common)
        result = suite.run_config(config, monitor_interval=args.monitor,
                                  tracer=tracer)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.store import StoredResult

    if isinstance(result, StoredResult):
        print(render_stored_report(result))
    else:
        print(render_report(result))
    if args.phase_report:
        print()
        print(render_phase_table(result))
    if args.timeline:
        from repro.hadoop.history import render_timeline

        print("\nTask timeline:")
        print(render_timeline(result))
    if args.history_json:
        from repro.hadoop.history import history_json

        with open(args.history_json, "w") as handle:
            handle.write(history_json(result))
        print(f"\njob history written to {args.history_json}")
    if args.trace is not None:
        from repro.analysis.export import write_chrome_trace

        write_chrome_trace(args.trace, result.trace)
        print(f"\nchrome trace written to {args.trace}")
    return 0


def _run_sweep(suite: MicroBenchmarkSuite, args, common: dict) -> int:
    from repro.analysis.export import sweep_to_csv, write_csv

    sizes = [float(s) for s in args.sweep.split(",") if s.strip()]
    if not sizes:
        print("error: --sweep needs at least one size", file=sys.stderr)
        return 2
    networks = (
        [n.strip() for n in args.networks.split(",") if n.strip()]
        if args.networks
        else [args.network]
    )
    # The benchmark name determines the pattern; sweep() applies it.
    sweep_kwargs = {k: v for k, v in common.items() if k != "pattern"}
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    sweep = suite.sweep(args.benchmark, sizes, networks, jobs=args.jobs,
                        **sweep_kwargs)
    print(sweep.to_table(
        title=f"{args.benchmark} job execution time (s) [{args.framework}]"))
    if args.csv:
        write_csv(args.csv, sweep_to_csv(sweep))
        print(f"\ncsv written to {args.csv}")
    return 0


def build_repro_parser() -> argparse.ArgumentParser:
    """The ``repro`` command: store / campaign / book subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Campaign, result-store and Experiment Book toolchain for "
            "the micro-benchmark suite"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", default=None, metavar="ROOT",
                       help="result store root: a directory, or "
                            "sqlite:PATH for a database file "
                            "(default: $REPRO_STORE, else .repro-store)")

    store = sub.add_parser("store", help="inspect or maintain a result "
                                         "store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser("stats", help="record counts and lifetime "
                                               "put/hit/miss counters")
    add_store_arg(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the stats as one JSON object "
                            "(for automation; hit_rate is a float "
                            "0-100, or null with no lookups)")
    verify = store_sub.add_parser(
        "verify", help="fsck every record: parses, matches its key, "
                       "matches the schema, provenance hashes back, "
                       "text is canonical")
    add_store_arg(verify)
    verify.add_argument("--gc", action="store_true",
                        help="sweep records that fail verification")
    ls = store_sub.add_parser("ls", help="list stored point keys")
    add_store_arg(ls)
    ls.add_argument("--long", "-l", action="store_true",
                    help="also show benchmark, network, size and "
                         "campaign tags per record")
    ls.add_argument("--campaign", default=None, metavar="NAME",
                    help="only records tagged by campaign NAME")
    gc = store_sub.add_parser("gc", help="remove stale (wrong-schema or "
                                         "unreadable) records")
    add_store_arg(gc)
    gc.add_argument("--all", action="store_true",
                    help="remove every record, not just stale ones")
    export = store_sub.add_parser("export", help="dump records as JSON "
                                                 "Lines")
    add_store_arg(export)
    export.add_argument("--output", "-o", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")
    migrate = store_sub.add_parser(
        "migrate", help="copy one store into another, or import an old "
                        "objects/ directory store (DIR DIR imports in "
                        "place), key-for-key and byte-identical")
    migrate.add_argument("source", metavar="SRC",
                         help="source store root, or an old directory "
                              "store (DIR or file:DIR)")
    migrate.add_argument("destination", metavar="DST",
                         help="destination store root (directory or "
                              "sqlite:PATH)")

    campaign = sub.add_parser("campaign", help="run declarative benchmark "
                                               "campaigns")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def add_campaign_exec_args(p: argparse.ArgumentParser) -> None:
        """Flags shared by ``campaign run`` and ``campaign resume``."""
        p.add_argument("spec", metavar="SPEC",
                       help="campaign spec file (TOML or JSON)")
        p.add_argument("--name", default=None,
                       help="campaign to run when SPEC holds several")
        add_store_arg(p)
        p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="simulate cache misses on N worker processes")
        p.add_argument("--quiet", "-q", action="store_true",
                       help="suppress per-point progress lines")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry each failing point up to N times with "
                            "exponential backoff (default: 0)")
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-point wall-clock limit; a worker that "
                            "exceeds it is terminated (attempt counts as "
                            "a retryable failure)")
        p.add_argument("--backoff", type=float, default=0.1, metavar="SEC",
                       help="base backoff before the first retry "
                            "(doubles per retry; default: 0.1)")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--fail-fast", action="store_true",
                          help="abort the campaign at the first "
                               "quarantined point (exit 1)")
        mode.add_argument("--keep-going", action="store_true",
                          help="exit 0 even when points were quarantined "
                               "(default: complete the campaign but "
                               "exit 1)")
        p.add_argument("--profile", action="store_true",
                       help="print the per-stage wall-clock breakdown "
                            "(expand / store-lookup / shared-setup / "
                            "simulate / record) after the campaign")
        p.add_argument("--backend", choices=("local", "pool"),
                       default="local",
                       help="execution backend for cache misses: "
                            "'local' supervises worker processes "
                            "in-process (default); 'pool' coordinates "
                            "socket-connected `repro worker` processes "
                            "with lease-based failover")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="[pool] spawn N local workers (default: "
                            "--jobs); 0 spawns none - print the listen "
                            "address and wait for external `repro "
                            "worker --connect` processes")
        p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                       help="[pool] coordinator listen address "
                            "(default: 127.0.0.1:0, an ephemeral port)")
        p.add_argument("--lease", type=float, default=None, metavar="SEC",
                       help="[pool] heartbeat lease; a worker silent "
                            "this long is declared dead and its unit "
                            "reassigned (default: 15)")
        p.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SEC",
                       help="[pool] grace for in-flight units after "
                            "SIGINT before they are abandoned "
                            "(default: 30)")

    run = campaign_sub.add_parser(
        "run", help="execute a campaign spec through the store "
                    "(skip-on-hit; failures are quarantined, not fatal)")
    add_campaign_exec_args(run)
    resume = campaign_sub.add_parser(
        "resume", help="re-run only the campaign's missing and "
                       "quarantined points (after a crash, interrupt, "
                       "or partial failure)")
    add_campaign_exec_args(resume)

    serve = sub.add_parser(
        "serve", help="run the benchmark service: an HTTP front end "
                      "answering point queries warm from the store and "
                      "cold through the campaign executor")
    add_store_arg(serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8713,
                       help="TCP port to bind; 0 picks a free one "
                            "(default: 8713)")
    serve.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="simulate cold points on N worker processes")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry each failing point up to N times "
                            "before quarantining it (default: 0)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-point wall-clock limit for cold "
                            "simulations")
    serve.add_argument("--backoff", type=float, default=0.1, metavar="SEC",
                       help="base backoff before the first retry "
                            "(default: 0.1)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="cold-point queue bound; excess queries get "
                            "a 503 (default: 256)")
    serve.add_argument("--backend", choices=("local", "pool"),
                       default="local",
                       help="execution backend for cold points "
                            "(default: local)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="[pool] spawn N local workers "
                            "(default: --jobs)")

    worker = sub.add_parser(
        "worker", help="join a distributed campaign worker pool "
                       "(dial a `repro campaign run --backend pool` "
                       "coordinator)")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address printed by "
                             "`repro campaign run --backend pool`")
    worker.add_argument("--connect-timeout", type=float, default=30.0,
                        metavar="SEC",
                        help="give up if the coordinator is "
                             "unreachable (default: 30)")

    book = sub.add_parser("book", help="render the Experiment Book from "
                                       "store contents")
    book.add_argument("out_dir", metavar="OUT",
                      help="output directory for the Markdown pages")
    add_store_arg(book)
    book.add_argument("--campaign", action="append", default=None,
                      metavar="NAME",
                      help="restrict to campaign NAME (repeatable; "
                           "default: everything tagged in the store)")
    book.add_argument("--title", default="Experiment Book",
                      help="index page title")
    return parser


def _repro_store(args, create: bool = True):
    """The store a ``repro`` subcommand operates on (always set).

    Commands that only inspect or maintain a store pass
    ``create=False``: a root whose database does not exist is then a
    ``ValueError`` (exit 2) instead of a new, empty store, so a
    mistyped root is reported and nothing is created.
    """
    from repro.store import ResultStore, default_store_root

    root = args.store or default_store_root() or ".repro-store"
    store = ResultStore(root)
    if not create and not store.location.exists():
        raise ValueError(f"no store at {root}")
    return store


def _render_quarantine_entry(key: str, entry: dict) -> str:
    """One quarantine-ledger line with its per-attempt history."""
    label = entry.get("label") or key[:16]
    attempts = entry.get("attempts") or 0
    line = f"{label}: {attempts} attempt(s)"
    history = entry.get("history") or []
    for event in history:
        kind = event.get("kind", "error")
        worker = event.get("worker") or "?"
        wall = event.get("wall_time") or 0.0
        line += (f"\n    attempt {event.get('attempt', '?')}: {kind} "
                 f"on {worker} after {wall:.2f}s"
                 + (f" - {event['error']}" if event.get("error") else ""))
    if not history and entry.get("error"):
        line += f" - {entry['error']}"
    return line


def _cmd_store(args) -> int:
    if args.store_command == "migrate":
        return _cmd_store_migrate(args)
    store = _repro_store(args, create=False)
    if args.store_command == "stats":
        from repro.store import hit_rate

        stats = store.stats()
        rate = hit_rate(stats)
        if args.json:
            import json

            stats["hit_rate"] = rate
            print(json.dumps(stats, indent=1, sort_keys=True))
            return 0
        stats["hit_rate"] = f"{rate:.1f}%" if rate is not None else "n/a"
        width = max(len(k) for k in stats)
        for key in ("root", "backend", "schema", "records",
                    "stale_records", "bytes", "puts", "hits", "misses",
                    "hit_rate", "quarantined", "leases"):
            print(f"{key.ljust(width)} : {stats[key]}")
        return 0
    if args.store_command == "verify":
        report = store.verify(gc=args.gc)
        for problem in report.problems:
            print(problem.render())
        quarantined = store.quarantine()
        if quarantined:
            print(f"{len(quarantined)} quarantined point(s):")
            for key, entry in sorted(quarantined.items()):
                print("  " + _render_quarantine_entry(key, entry))
        state = "OK" if report.clean else "PROBLEMS FOUND"
        print(f"verified {report.checked} record(s): {report.ok} ok, "
              f"{len(report.problems)} bad"
              + (f", {report.swept} swept" if args.gc else "")
              + f"  [{state}]")
        if not report.meta_ok:
            print(f"warning: the database of the {store.describe()} is "
                  f"damaged: reads warn and miss, and the first write "
                  f"leaves the store read-only; restore it from a copy, "
                  f"or `repro store migrate` a copy into a new store",
                  file=sys.stderr)
        if report.clean or (args.gc and report.meta_ok
                            and report.swept == len(report.problems)):
            return 0
        return 1
    if args.store_command == "ls":
        if not args.long:
            keys = (store.campaign_keys(args.campaign)
                    if args.campaign else store.keys())
            for key in keys:
                print(key)
            return 0
        from repro.store import StoredResult

        for key, record in store.records():
            if args.campaign and args.campaign not in (
                    record.get("tags") or {}):
                continue
            try:
                result = StoredResult.from_dict(record["result"])
            except (KeyError, ValueError):
                print(f"{key[:16]}  (unreadable result payload)")
                continue
            tags = ",".join(sorted(record.get("tags") or {})) or "-"
            print(f"{key[:16]}  {result.summary()['benchmark']:<8}"
                  f" {result.runtime:<5}"
                  f" {result.config.shuffle_bytes / 1e9:6.2f} GB"
                  f"  {result.interconnect_name:<20}"
                  f" {result.execution_time:8.2f} s  {tags}")
        return 0
    if args.store_command == "gc":
        removed = store.gc(remove_all=args.all)
        print(f"removed {removed} record(s) from {store.root}")
        return 0
    if args.store_command == "export":
        lines = list(store.export())
        if args.output:
            with open(args.output, "w") as handle:
                handle.write("\n".join(lines) + ("\n" if lines else ""))
            print(f"exported {len(lines)} record(s) to {args.output}")
        else:
            for line in lines:
                print(line)
        return 0
    raise AssertionError(args.store_command)


def _cmd_store_migrate(args) -> int:
    from repro.store import migrate_store

    try:
        report = migrate_store(args.source, args.destination)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _make_pool_backend(args):
    """A started PoolBackend per the campaign/serve CLI flags."""
    from repro.campaign.pool import PoolBackend
    from repro.campaign.worker import _parse_endpoint

    workers = args.workers if args.workers is not None else args.jobs
    if workers < 0:
        raise ValueError("--workers must be >= 0")
    kwargs = {}
    if args.lease is not None:
        kwargs["lease"] = args.lease
    if args.drain_timeout is not None:
        kwargs["drain_timeout"] = args.drain_timeout
    backend = PoolBackend(bind=_parse_endpoint(args.bind),
                          workers=workers, **kwargs)
    backend.ensure_started()
    host, port = backend.address
    print(f"pool coordinator listening on {host}:{port}"
          + ("" if workers else
             f" - join with: repro worker --connect {host}:{port}"),
          flush=True)
    return backend


def _cmd_campaign(args) -> int:
    from repro.campaign import (ExecutionBackendError, RetryPolicy,
                                load_campaign, run_campaign)

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    campaign = load_campaign(args.spec, name=args.name)
    store = _repro_store(args)
    try:
        policy = RetryPolicy(retries=args.retries, backoff=args.backoff,
                             timeout=args.timeout)
        backend = (_make_pool_backend(args)
                   if args.backend == "pool" else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.campaign_command == "resume":
        # Quarantined points get a fresh set of attempts; completed
        # points are served from the store (skip-on-hit), so only the
        # gap re-runs. Print each point's attempt history first — the
        # post-mortem would be gone after the clear.
        keys = _campaign_keys(campaign, store)
        ledger = store.quarantine()
        held = {key: ledger[key] for key in keys if key in ledger}
        for key, entry in held.items():
            print("quarantined " + _render_quarantine_entry(key, entry))
        cleared = store.quarantine_clear(keys)
        if cleared:
            print(f"cleared {cleared} quarantined point(s); retrying")
    progress = None if args.quiet else (
        lambda p: print(p.render(), flush=True))
    try:
        outcome = run_campaign(campaign, store=store, jobs=args.jobs,
                               progress=progress, policy=policy,
                               fail_fast=args.fail_fast, backend=backend)
    except ExecutionBackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if backend is not None:
            backend.close()
    print(f"campaign {campaign.name}: {len(outcome.outcomes)} points, "
          f"{outcome.executed} simulated, {outcome.from_store} from "
          f"the store, {outcome.failed} failed"
          + (f", {outcome.skipped} skipped" if outcome.skipped else "")
          + (" [interrupted]" if outcome.interrupted else ""),
          flush=True)
    if args.profile:
        stages = ["expand", "store-lookup", "shared-setup", "simulate",
                  "record"]
        print("stage breakdown:")
        for stage in stages:
            print(f"  {stage.ljust(12)} : "
                  f"{outcome.profile.get(stage, 0.0):9.3f} s")
        extra = sorted(set(outcome.profile) - set(stages))
        for stage in extra:
            print(f"  {stage.ljust(12)} : {outcome.profile[stage]:9.3f} s")
        print(f"  {'total'.ljust(12)} : "
              f"{sum(outcome.profile.values()):9.3f} s")
        if outcome.batched and outcome.executed:
            print(f"  batch plan: {outcome.executed} cold point(s) -> "
                  f"{outcome.unique_simulations} unique simulation(s)")
    if outcome.failed:
        print(f"{outcome.failed} point(s) quarantined in "
              f"{store.quarantine_location}; `repro campaign resume "
              f"{args.spec}` retries them", file=sys.stderr)
    if outcome.interrupted:
        return 130
    if outcome.failed and not args.keep_going:
        return 1
    return 0


def _campaign_keys(campaign, store):
    """Store keys of every grid point of a campaign."""
    from repro.core.suite import MicroBenchmarkSuite

    suite = MicroBenchmarkSuite(
        cluster=campaign.cluster_spec(), jobconf=campaign.jobconf(),
        fault_plan=campaign.fault_plan, store=store,
    )
    return [suite.store_key(p.config) for p in campaign.points()]


def _cmd_serve(args) -> int:
    from repro.campaign import RetryPolicy
    from repro.service import BenchmarkService, run_server

    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    backend = None
    try:
        policy = RetryPolicy(retries=args.retries, backoff=args.backoff,
                             timeout=args.timeout)
        if args.backend == "pool":
            args.bind = "127.0.0.1:0"
            args.lease = args.drain_timeout = None
            backend = _make_pool_backend(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kwargs = {}
    if args.max_queue is not None:
        kwargs["max_queue"] = args.max_queue
    service = BenchmarkService(_repro_store(args), policy=policy,
                               jobs=args.jobs, execution_backend=backend,
                               **kwargs)

    def ready(host: str, port: int) -> None:
        print(f"serving {service.store.describe()} "
              f"on http://{host}:{port}", flush=True)

    try:
        return run_server(service, host=args.host, port=args.port,
                          ready=ready)
    finally:
        if backend is not None:
            backend.close()


def _cmd_worker(args) -> int:
    from repro.campaign.worker import main as worker_main

    return worker_main(["--connect", args.connect,
                        "--connect-timeout", str(args.connect_timeout)])


def _cmd_book(args) -> int:
    from repro.analysis.book import build_book

    written = build_book(_repro_store(args, create=False), args.out_dir,
                         campaigns=args.campaign, title=args.title)
    for path in written:
        print(f"wrote {path}")
    return 0


def repro_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` command."""
    args = build_repro_parser().parse_args(argv)
    try:
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "book":
            return _cmd_book(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
