"""Shared plumbing for the repository benchmark: paths, samples, checks.

Everything here is deliberately free of ``repro`` imports at module
level, so ``run.py`` can report a missing program tree before touching
it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (this file lives one level down).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC_DIR = ROOT / "benchmarks" / "campaigns"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: ``BenchmarkConfig.seed``: the specs' own seed, at which the pinned
#: figure digest applies.
DEFAULT_SEED = 20140901

#: Seeds are folded into numpy's accepted range with room for the
#: trial stride (seed + trial * 9973 must stay below 2**32).
SEED_MODULUS = 2_000_000_000

#: Percentiles tried, highest first, for the tail-latency rule.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: :func:`host_probe`'s median on the reference host (2 vCPU Xeon VM,
#: Python 3.11) when the benchmark was defined. Timed samples are
#: reported at this host speed.
PROBE_REFERENCE_S = 0.050

#: Samples longer than this span several swings of host speed, which
#: one short probe cannot describe: they are scaled by the median of
#: every probe the run has taken instead of the last one.
SCALE_LIMIT_S = 5.0


def program_seed(seed: int) -> int:
    """The seed handed to the program for a ``--seed`` argument."""
    return seed % SEED_MODULUS


def require_program() -> None:
    """Exit non-zero when the checkout lacks the program or its specs."""
    missing = [p for p in (SRC / "repro" / "__init__.py", SPEC_DIR)
               if not p.exists()]
    if missing:
        names = ", ".join(str(p.relative_to(ROOT)) for p in missing)
        print(f"error: the checkout has no {names}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)``: the highest percentile with >= 10 samples beyond.

    ``None`` when the sample is too small for even the median.
    """
    for pct in TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_program_caches() -> None:
    """Drop every in-process cache so the next pass starts cold."""
    from repro.core.matrix import clear_matrix_cache
    from repro.core.suite import clear_result_cache
    from repro.net.fabric import clear_link_table_cache

    clear_result_cache()
    clear_matrix_cache()
    clear_link_table_cache()


def host_probe(scratch: Path) -> float:
    """Seconds for a fixed stdlib workload on this host, right now.

    Python arithmetic plus small JSON file writes, the program's own mix
    of work, and nothing from the program, so no change to it can move
    the probe. Shared hosts swing by a third over minutes; scaling each
    sample by the probe taken just before it cancels most of that.
    """
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    doc = {f"k{i}": [i, str(i), i / 3.0] for i in range(200)}
    for i in range(25):
        path = scratch / f"probe{i}.json"
        tmp = scratch / f"probe{i}.tmp"
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    return time.perf_counter() - started


def time_import_probe() -> float:
    """Wall seconds for a fresh interpreter to start and import the
    program's public entry points (the import share of set-up)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro.campaign, repro.service, repro.store"],
        env=env, cwd=str(ROOT), check=True, timeout=120)
    return time.perf_counter() - started


class Recorder:
    """Samples, operation counts and output checks of one phase."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 tracer=None, max_iterations: Optional[int] = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        #: Caps loop iterations (the traced phase runs one).
        self.max_iterations = max_iterations
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Per-layer figures the workload reads from the program's own
        #: counters (pool counters, service stats, campaign results).
        self.layer: Dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.started = time.perf_counter()
        self._tmp = Path(tempfile.mkdtemp(prefix="run-", dir=_tmp_root()))
        self._probe_s = PROBE_REFERENCE_S

    # -- measurement -------------------------------------------------------

    def probe(self) -> None:
        """Time :func:`host_probe`; later samples are scaled by it."""
        self._probe_s = host_probe(self._tmp)
        self.samples["probe"].append(self._probe_s)

    def scale(self, seconds: float) -> float:
        """``seconds`` at the reference host's speed, by the last probe
        (by the run's median probe past :data:`SCALE_LIMIT_S`)."""
        probe = (median(self.samples["probe"]) if seconds > SCALE_LIMIT_S
                 else self._probe_s)
        return seconds * PROBE_REFERENCE_S / probe

    def add(self, metric: str, seconds: float,
            scaled: Optional[float] = None) -> None:
        """Record one timed sample, raw and scaled to reference speed.

        ``scaled`` is for a sample the caller scaled piece by piece.
        """
        self.samples["raw_" + metric].append(seconds)
        self.samples[metric].append(
            self.scale(seconds) if scaled is None else scaled)

    def note(self, metric: str, value: float) -> None:
        """Record one unscaled figure (a ratio, a per-layer time)."""
        self.samples[metric].append(value)

    def operations(self, attempted: int, failed: int = 0) -> None:
        """Count operations the program performed (points, requests)."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(
                f"{failed} of {attempted} operations failed")

    def check(self, ok: bool, what: str) -> None:
        """One output check; a failure counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def iterations(self, minimum: int) -> Iterator[int]:
        """Loop indices: at least ``minimum``, then until time is up."""
        index = 0
        while True:
            if self.max_iterations is not None:
                if index >= self.max_iterations:
                    return
            elif (index >= minimum
                  and time.perf_counter() - self.started >= self.seconds):
                return
            yield index
            index += 1

    @contextlib.contextmanager
    def span(self, label: str):
        """A ``bench.pass`` span around one timed pass (traced only)."""
        if self.tracer is None:
            yield
            return
        with self.tracer.root(f"{self.workload}/{label}"):
            yield

    # -- scratch space -----------------------------------------------------

    def new_dir(self, name: str) -> str:
        """A fresh empty directory inside the checkout."""
        return tempfile.mkdtemp(prefix=f"{name}-", dir=str(self._tmp))

    def cleanup(self) -> None:
        """Remove this phase's scratch directories."""
        shutil.rmtree(self._tmp, ignore_errors=True)


def _tmp_root() -> str:
    path = OUT_DIR / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def fingerprint() -> Dict[str, object]:
    """The host and program settings a result was measured under."""
    import numpy

    from repro.store import ResultStore
    from repro.store.backend import FSYNC_ENV_VAR, fsync_enabled

    probe = tempfile.mkdtemp(prefix="fingerprint-", dir=_tmp_root())
    try:
        backend = ResultStore(probe).backend.scheme
    finally:
        shutil.rmtree(probe, ignore_errors=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_backend": backend,
        "store_fsync": (f"{fsync_enabled()} "
                        f"({FSYNC_ENV_VAR}={os.environ.get(FSYNC_ENV_VAR, '')})"),
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
