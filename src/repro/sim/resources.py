"""Shared-resource models built on the event kernel.

:class:`SlotResource`
    A FIFO counting semaphore. Models Hadoop MRv1 map/reduce slots,
    YARN container capacity, and per-reducer fetcher threads.

:class:`FairShareResource`
    An egalitarian processor-sharing byte server: all active requests
    progress at ``capacity / n_active``. Models local disks serving
    concurrent spills and merges. (NIC bandwidth sharing is *not* this —
    it needs max-min fairness across node pairs and lives in
    :mod:`repro.net.fabric`.)
"""

from __future__ import annotations

from typing import Deque, List
from collections import deque

from repro.sim.events import Event, SimulationError
from repro.sim.monitor import ByteCounter

#: Float-comparison slack for "work finished" checks (bytes).
_EPS = 1e-6


class SlotResource:
    """FIFO counting semaphore.

    Processes acquire with ``yield resource.request()`` and must call
    :meth:`release` exactly once per granted request.
    """

    def __init__(self, sim: "Simulator", capacity: int, name: str = "slots"):  # noqa: F821
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when a slot is granted."""
        ev = self.sim.event(name=f"{self.name}:request")
        if self._in_use < self.capacity and not self._waiters:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        ev.succeed()

    def cancel(self, ev: Event) -> bool:
        """Withdraw a still-queued request (e.g. the requester died).

        Returns ``True`` if the request was waiting and got removed.
        A request that was already granted cannot be cancelled — the
        holder must :meth:`release` instead.
        """
        try:
            self._waiters.remove(ev)
        except ValueError:
            return False
        return True

    def release(self) -> None:
        """Free one slot; hands it to the oldest waiter, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without request")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())


class _LiveServedCounter(ByteCounter):
    """Byte counter whose total includes service accrued since the last
    change point, so monitor samples between events see live progress."""

    __slots__ = ("_resource",)

    def __init__(self, resource: "FairShareResource"):
        super().__init__()
        self._resource = resource

    @property
    def total(self) -> float:
        res = self._resource
        accrued = 0.0
        if res._jobs:
            accrued = res.capacity * (res.sim.now - res._last)
        return self._total + accrued


class _FairJob:
    __slots__ = ("amount", "remaining", "event")

    def __init__(self, amount: float, event: Event):
        self.amount = amount
        self.remaining = amount
        self.event = event


class FairShareResource:
    """Egalitarian processor-sharing server for byte-sized work.

    All active jobs receive ``capacity / n_active`` service rate; rates
    are recomputed whenever a job arrives or finishes. Service is exact
    (piecewise-constant rates integrated between change points).

    Used for node-local disks: concurrent map-output spills and reduce
    merges share the aggregate disk bandwidth of the node.
    """

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        capacity: float,
        name: str = "fairshare",
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._jobs: List[_FairJob] = []
        self._last = sim.now
        self._timer_id = 0
        self.bytes_served: ByteCounter = _LiveServedCounter(self)

    @property
    def active_jobs(self) -> int:
        return len(self._jobs)

    def submit(self, amount: float) -> Event:
        """Submit ``amount`` units of work; returns its completion event.

        Zero-sized work completes at the current instant.
        """
        if amount < 0:
            raise ValueError(f"negative work amount: {amount}")
        ev = self.sim.event(name=f"{self.name}:job")
        if amount == 0:
            ev.succeed()
            return ev
        self._advance()
        self._jobs.append(_FairJob(amount, ev))
        self._reschedule()
        return ev

    # -- internals -----------------------------------------------------

    def _rate(self) -> float:
        return self.capacity / len(self._jobs) if self._jobs else 0.0

    def _advance(self) -> None:
        """Apply service received since the last change point."""
        now = self.sim.now
        if now <= self._last:
            self._last = now
            return
        if self._jobs:
            served = self._rate() * (now - self._last)
            for job in self._jobs:
                job.remaining -= served
            self.bytes_served.add(served * len(self._jobs))
        self._last = now

    def _reschedule(self) -> None:
        """Complete any finished jobs, then set a timer for the next one."""
        while True:
            finished = [j for j in self._jobs if j.remaining <= _EPS]
            if finished:
                self._jobs = [j for j in self._jobs if j.remaining > _EPS]
                for job in finished:
                    job.event.succeed(job.amount)
            if not self._jobs:
                self._timer_id += 1  # invalidate outstanding timers
                return
            rate = self._rate()
            next_done = min(j.remaining for j in self._jobs) / rate
            when = self.sim.now + next_done
            if when > self.sim.now:
                break
            # The remainder is below float time resolution: consuming it
            # cannot advance the clock, so finish those jobs now instead
            # of spinning on zero-delay timers.
            threshold = min(j.remaining for j in self._jobs) + _EPS
            for job in self._jobs:
                if job.remaining <= threshold:
                    job.remaining = 0.0
        self._timer_id += 1
        timer_id = self._timer_id

        def on_timer() -> None:
            if timer_id != self._timer_id:
                return  # superseded by a later arrival/departure
            self._advance()
            self._reschedule()

        self.sim.call_at(when, on_timer)
