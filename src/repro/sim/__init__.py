"""Discrete-event simulation kernel.

This subpackage is the lowest substrate of the reproduction: a small,
deterministic, generator-based discrete-event simulator in the style of
SimPy, plus the shared-resource models (slots, fair-share servers) and the
resource-utilization monitor that the simulated Hadoop framework and the
network fabric are built on.

Public API
----------
:class:`~repro.sim.kernel.Simulator`
    The event loop: a virtual clock and a priority queue of events.
:class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`
    Primitive events; processes wait on them with ``yield``.
:class:`~repro.sim.process.Process`
    A generator-based simulated activity.
:class:`~repro.sim.resources.SlotResource`
    FIFO counting semaphore (task slots, fetcher threads...).
:class:`~repro.sim.resources.FairShareResource`
    Processor-sharing byte server (disks).
:class:`~repro.sim.monitor.ResourceMonitor`
    Periodic sampling of busy-level gauges and byte-rate counters
    (Figure 7 traces).
"""

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import FairShareResource, SlotResource
from repro.sim.monitor import ByteCounter, ResourceMonitor
from repro.sim.trace import (
    NULL_TRACER,
    NullTracer,
    PhaseSpan,
    TraceEvent,
    Tracer,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "ByteCounter",
    "Event",
    "FairShareResource",
    "Interrupt",
    "NULL_TRACER",
    "NullTracer",
    "PhaseSpan",
    "Process",
    "ResourceMonitor",
    "SimulationError",
    "Simulator",
    "SlotResource",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
