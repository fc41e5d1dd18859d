"""Check one traced repository-benchmark run against its pinned counts.

Usage::

    python3 perfbench/run.py --workload figures-cold --seconds 15 --trace 1 \\
        | tee figures-cold.log
    python3 benchmarks/traced_gate.py figures-cold figures-cold.log

The last line of LOG is the run's JSON summary. The gate exits 1, with
one line per problem, if the run's output checks failed or a per-layer
metric misses its expectation, and 0 otherwise.

Each traced metric counts calls through a wrapper the benchmark
installs at a layer boundary, so a rename or a call that goes around
one reads 0 without any error. Exact counts catch more: figures-cold's
event, flow and solve counts pin the simulation's schedule, so a fabric
change that moves the solve schedule fails here even when every
simulated time stays equal, and pool-fig3a's twelve dispatches with no
lost worker, reassignment or expired lease pin a clean pool pass.
"""

import json
import sys

#: Workload -> metric -> the exact value a traced run must report.
EXACT = {
    "figures-cold": {
        "hadoop.jobs": 102,
        "core.matrices": 34,
        "sim.events": 451117,
        "net.flows": 26880,
        "net.solves": 44501,
    },
    "trials-1000": {
        "store.keys": 2000,
        "store.reads": 2000,
        "store.writes": 1000,
        "hadoop.jobs": 25,
    },
    "service-mix": {},
    "pool-fig3a": {
        "pool.dispatched": 12,
        "store.writes": 12,
        "campaign.simulated": 12,
        "pool.workers_lost": 0,
        "pool.reassignments": 0,
        "pool.leases_expired": 0,
    },
}

#: Workload -> metrics a traced run must report as nonzero.
NONZERO = {
    "figures-cold": ("core.matrix_s",),
    "trials-1000": (),
    "service-mix": ("service.warm_hits", "service.cold_misses",
                    "store.reads", "service.query_p50_ms",
                    "service.http_p50_ms"),
    "pool-fig3a": ("pool.join_s", "pool.busy_frac", "wire.frames",
                   "wire.bytes"),
}


def problems(workload: str, run: dict) -> list:
    """What is wrong with one run's JSON summary (empty when it passes)."""
    found = [] if run.get("correct") else ["output checks failed"]
    value = {name: metric["value"]
             for name, metric in run.get("metrics", {}).items()}
    for name, count in EXACT[workload].items():
        if value.get(name) != count:
            found.append(f"{name} is {value.get(name)}, not {count}")
    for name in NONZERO[workload]:
        if not value.get(name):
            found.append(f"{name} is {value.get(name)}")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or args[0] not in EXACT:
        print(f"usage: traced_gate.py {{{','.join(EXACT)}}} LOG",
              file=sys.stderr)
        return 2
    workload, log = args
    with open(log) as handle:
        lines = handle.read().splitlines()
    if not lines:
        print(f"traced {workload} pass: {log} is empty")
        return 1
    found = problems(workload, json.loads(lines[-1]))
    for problem in found:
        print(f"traced {workload} pass: {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
