"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (see :mod:`repro.sim.process`) wait on events by ``yield``-ing
them; the kernel resumes the process when the event is *processed*.

Events follow the usual two-stage lifecycle:

``untriggered`` --(succeed/fail)--> ``triggered`` --(kernel pops it)-->
``processed`` (callbacks run).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running a dead simulator)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The ``cause`` attribute carries the value passed by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Sentinel for "no value set yet" (``None`` is a legal event value).
_UNSET = object()


class Event:
    """A one-shot occurrence processes can wait for.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    #: Events are the most-allocated objects in a simulation (every
    #: timeout, flow completion and resource grant is one), so they are
    #: slotted. ``_defused`` is intentionally *unset* until a failure is
    #: observed — ``hasattr`` checks rely on that.
    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator", name: Optional[str] = None):  # noqa: F821
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _UNSET
        self._ok: Optional[bool] = None

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the kernel has run the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is _UNSET:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks.

        ``delay`` defers processing by simulated seconds (default: now,
        still after the current event finishes, preserving causality).
        """
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes get ``exception`` thrown."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        # Failures are "defused" once at least one waiter saw them.
        self._defused = False
        self.sim._schedule(self, delay)
        return self

    # -- waiting -------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed, the callback runs
        immediately (synchronously) — this keeps "wait on an event that
        already happened" race-free for resources and flows.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> bool:
        """Remove a pending callback; returns True if it was present."""
        if self.callbacks is None:
            return False
        try:
            self.callbacks.remove(callback)
            return True
        except ValueError:
            return False

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{label} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that succeeds ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=name or f"Timeout({delay:g})")
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf`.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value at the moment the condition fired.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Sequence[Event]):  # noqa: F821
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from two simulators")
        # Each distinct event is watched once; ``_pending`` counts the
        # distinct events not yet seen to succeed.
        distinct = list(dict.fromkeys(self._events))
        self._pending = sum(1 for ev in distinct
                            if not (ev.processed and ev.ok))
        for ev in distinct:
            if ev.processed:
                self._settle(ev)
            else:
                ev.add_callback(self._observe)
        if not self.triggered:
            self._check(initial=True)

    def _observe(self, event: Event) -> None:
        if event.ok:
            self._pending -= 1
        self._settle(event)

    def _settle(self, event: Event) -> None:
        """Fail on a failed constituent, else re-check the condition."""
        if not event.ok:
            if not self.triggered:
                event._defused = True  # type: ignore[attr-defined]
                self.fail(event.value)
            return
        if not self.triggered:
            self._check(initial=False)

    def _collect(self) -> dict:
        # Only *processed* events count as "happened": a Timeout is
        # triggered at creation but has not occurred until the kernel
        # reaches its scheduled time.
        return {ev: ev.value for ev in self._events if ev.processed and ev.ok}

    def _check(self, initial: bool) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when *all* constituent events have succeeded."""

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when *any* constituent event has succeeded.

    An empty event list succeeds immediately (vacuously true), mirroring
    SimPy semantics.
    """

    __slots__ = ()

    def _check(self, initial: bool) -> None:
        if not self._events:
            self.succeed({})
            return
        if any(ev.processed and ev.ok for ev in self._events):
            self.succeed(self._collect())
