"""Generator-based processes.

A process wraps a Python generator.  Each ``yield`` must produce an
:class:`~repro.sim.events.Event`; the process suspends until that event is
processed and then resumes with the event's value.  If the event failed,
the exception is thrown into the generator at the yield point.

A :class:`Process` is itself an event: it triggers when the generator
returns (with the return value) or raises (with the exception), so
processes can wait on each other simply by yielding them.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import Any, Generator, Optional

from repro.sim.errors import Interrupt, SimError
from repro.sim.events import Event


class Process(Event):
    """A running simulation process (coroutine driven by events)."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current simulation time.
        bootstrap = Event(sim, name=f"init:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()
        self._waiting_on = bootstrap

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on (or None)."""
        return self._waiting_on

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process that
        is waiting on an event detaches it from that event (the event still
        fires for other waiters).
        """
        if not self.is_alive:
            raise SimError(f"cannot interrupt dead process {self!r}")
        if self._waiting_on is self:
            raise SimError("a process cannot interrupt itself synchronously")
        # Deliver the interrupt via a freshly-scheduled failed event so that
        # resumption happens through the ordinary queue, preserving
        # deterministic ordering with other same-time events.
        wake = Event(self.sim, name=f"interrupt:{self.name}")
        wake.callbacks.append(self._resume_interrupt)
        wake._defused = True
        wake.fail(Interrupt(cause))

    # -- internal -------------------------------------------------------

    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # process finished before the interrupt was delivered
        # Detach from whatever we were waiting on.
        waited = self._waiting_on
        if waited is not None and waited.callbacks is not None:
            try:
                waited.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not waited.callbacks and not waited.triggered:
                # No live waiter left: let the event's source withdraw it
                # (a Store removes the stale get so it cannot swallow
                # an item meant for a later consumer).
                waited.abandoned()
        self._waiting_on = None
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        self._step(event)

    def _step(self, event: Event) -> None:
        # The generator resumption below is where model code actually
        # runs; when a kernel profiler is attached, bill its wall time
        # to this process's component (see repro.sim.profile).
        profiler = self.sim._profiler
        if profiler is None:
            self._step_inner(event)
            return
        start = perf_counter_ns()
        try:
            self._step_inner(event)
        finally:
            profiler.on_process(self.name, perf_counter_ns() - start)

    def _step_inner(self, event: Event) -> None:
        sim = self.sim
        sim._active_process = self
        try:
            if event._exception is not None:
                event._defused = True
                next_event = self._generator.throw(event._exception)
            else:
                next_event = self._generator.send(
                    event._value if event.triggered else None
                )
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None

        if not isinstance(next_event, Event):
            # Misuse: tell the process immediately with a helpful error.
            err = SimError(
                f"process {self.name!r} yielded {next_event!r}, "
                "which is not an Event"
            )
            wake = Event(sim, name=f"badyield:{self.name}")
            wake.callbacks.append(self._resume)
            wake._defused = True
            wake.fail(err)
            self._waiting_on = wake
            return
        if next_event.sim is not sim:
            raise SimError("process yielded an event from another simulator")

        if next_event.processed:
            # Already processed: re-deliver its outcome through the queue so
            # the process resumes via the scheduler, never by deep recursion.
            wake = Event(sim, name=f"redeliver:{self.name}")
            wake.callbacks.append(self._resume)
            if next_event._exception is not None:
                wake._defused = True
                wake.fail(next_event._exception)
            else:
                wake.succeed(next_event._value)
            self._waiting_on = wake
        else:
            self._waiting_on = next_event
            next_event.add_callback(self._resume)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
