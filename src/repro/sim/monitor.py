"""Resource accounting and time-series sampling.

The paper's micro-benchmark suite reports per-node CPU utilization and
network throughput traces during the job (Figure 7). In the simulated
substrate these traces are produced by reading the busy level of a
resource when a sample is due (a gauge), accumulating bytes moved
(:class:`ByteCounter`) and sampling both on a fixed interval
(:class:`ResourceMonitor`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple


class ByteCounter:
    """Monotone byte accumulator (NIC receive/send, disk bytes...)."""

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0.0

    def add(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"cannot add negative bytes: {nbytes}")
        self._total += nbytes

    @property
    def total(self) -> float:
        return self._total


class ResourceMonitor:
    """Samples registered metrics every ``interval`` simulated seconds.

    Two metric flavors:

    * *gauge* — a function read at each sample instant, e.g. a node's
      busy cores as a percent of its cores (the Fig. 7(a) CPU trace).
    * *rate* — backed by a :class:`ByteCounter`; each sample is the byte
      delta divided by the interval (optionally scaled, e.g. to MB/s).

    The monitor is *passive*: call :meth:`install` after creating it and
    the owning model must keep the simulator running past the times of
    interest (``Simulator.run(until=...)`` advances the clock even when
    the event queue drains first).
    """

    def __init__(self, sim: "Simulator", interval: float = 1.0):  # noqa: F821
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = float(interval)
        self._samplers: Dict[str, Callable[[float], float]] = {}
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self._installed = False
        self._stopped = False

    # -- metric registration -------------------------------------------

    def register_rate(
        self, name: str, counter: ByteCounter, scale: float = 1.0
    ) -> None:
        """Sample ``counter`` deltas as a rate (units/second * scale)."""
        state = {"total": counter.total, "time": self.sim.now}

        def sample(now: float) -> float:
            total = counter.total
            elapsed = now - state["time"]
            delta = total - state["total"]
            state["total"] = total
            state["time"] = now
            if elapsed <= 0:
                return 0.0
            return scale * delta / elapsed

        self._add(name, sample)

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Sample an instantaneous value returned by ``fn()``."""
        self._add(name, lambda _now: fn())

    def _add(self, name: str, sampler: Callable[[float], float]) -> None:
        if name in self._samplers:
            raise ValueError(f"metric {name!r} already registered")
        self._samplers[name] = sampler
        self.samples[name] = []

    # -- sampling loop ---------------------------------------------------

    def install(self) -> None:
        """Start the periodic sampling process."""
        if self._installed:
            raise RuntimeError("monitor already installed")
        self._installed = True
        self.sim.process(self._run(), name="resource-monitor")

    def stop(self) -> None:
        """Stop sampling after the next tick."""
        self._stopped = True

    def _run(self):
        while not self._stopped:
            yield self.sim.timeout(self.interval)
            now = self.sim.now
            for name, sampler in self._samplers.items():
                self.samples[name].append((now, sampler(now)))

    # -- access -----------------------------------------------------------

    def series(self, name: str) -> Tuple[List[float], List[float]]:
        """Return (times, values) for a metric."""
        pts = self.samples[name]
        return [t for t, _v in pts], [v for _t, v in pts]

    def peak(self, name: str) -> float:
        """Maximum sampled value of a metric (0.0 if no samples)."""
        pts = self.samples[name]
        return max((v for _t, v in pts), default=0.0)

    def mean(self, name: str) -> float:
        """Mean sampled value of a metric (0.0 if no samples)."""
        pts = self.samples[name]
        if not pts:
            return 0.0
        return sum(v for _t, v in pts) / len(pts)
