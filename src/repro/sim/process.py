"""Generator-based simulated processes.

A process is a Python generator that ``yield``-s :class:`Event` objects.
The kernel resumes the generator with the event's value when the event is
processed, or throws the event's exception into it when the event failed.
A :class:`Process` is itself an :class:`Event` that succeeds with the
generator's return value — so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, Interrupt, SimulationError


class Process(Event):
    """A running simulated activity.

    Created via :meth:`Simulator.process`; do not instantiate two
    processes from the same generator.
    """

    __slots__ = ("_generator", "_target")

    def __init__(
        self,
        sim: "Simulator",  # noqa: F821
        generator: Generator,
        name: Optional[str] = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {type(generator)!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target: Optional[Event] = None
        # Kick off the generator at the current instant via an initial event.
        init = Event(sim, name=f"{self.name}:init")
        init._ok = True
        init._value = None
        sim._schedule(init)
        init.add_callback(self._resume)
        self._target = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def kill(self) -> None:
        """Terminate the process at the current instant.

        The generator is closed (``GeneratorExit`` raised at its current
        ``yield``), so its ``finally`` blocks — resource releases, busy-core
        decrements — run deterministically *now*. The process
        event succeeds with ``None``. Used for losing speculative task
        attempts.
        """
        if self.triggered:
            return
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        self._generator.close()
        self.succeed(None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The interrupted process stops waiting on its current target event
        (the event itself is unaffected and may still fire later).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self._target is None:  # pragma: no cover - defensive
            raise SimulationError(f"{self!r} has no wait target")
        # Detach from the current target so its eventual firing is ignored.
        self._target.remove_callback(self._resume)
        self._target = None
        wakeup = Event(self.sim, name=f"{self.name}:interrupt")
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True
        self.sim._schedule(wakeup)
        wakeup.add_callback(self._resume)
        self._target = wakeup

    # -- kernel plumbing -------------------------------------------------

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event.ok:
                next_event = self._generator.send(event.value)
            else:
                if hasattr(event, "_defused"):
                    event._defused = True  # type: ignore[attr-defined]
                next_event = self._generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            error = SimulationError(
                f"{self.name} yielded {next_event!r}; processes must yield Events"
            )
            try:
                self._generator.throw(error)
            except StopIteration as stop:
                self.succeed(stop.value)
            except BaseException as exc:
                self.fail(exc)
            return
        self._target = next_event
        next_event.add_callback(self._resume)
