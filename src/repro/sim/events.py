"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Events move through three states:

* *pending* — created but not yet triggered;
* *triggered* — a value (or exception) has been attached and the event is
  sitting in the simulator's queue;
* *processed* — the simulator has popped the event and run its callbacks.

Processes (see :mod:`repro.sim.process`) interact with events by yielding
them: the process suspends until the event is processed, then resumes with
the event's value (or the attached exception raised at the yield point).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.sim.errors import SimError

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are created against a :class:`~repro.sim.kernel.Simulator` and
    triggered with :meth:`succeed` or :meth:`fail`.  Callbacks registered
    before processing run, in registration order, when the simulator pops
    the event off its queue.

    Events carry ``__slots__``: they are the single most-allocated object
    in the simulator, and slot storage keeps them dict-free on the hot
    path.  Subclasses must declare their own ``__slots__`` too.
    """

    __slots__ = (
        "sim", "name", "callbacks", "_value", "_exception", "_defused",
    )

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        # Whether a failure was observed by at least one waiter; unobserved
        # failures are re-raised at the end of the run so they never pass
        # silently.
        self._defused = False

    # -- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or exception has been attached."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is consumed)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises if not yet triggered."""
        if self._value is _PENDING:
            raise SimError(f"event {self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The attached exception, or None."""
        return self._exception

    # -- triggering -----------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self.triggered:
            raise SimError(f"event {self!r} already triggered")
        self._value = value
        self.sim.schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimError(f"event {self!r} already triggered")
        self._exception = exception
        self._value = None
        self.sim.schedule(self, delay=delay)
        return self

    # -- waiting --------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed, ``fn`` runs immediately.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def abandoned(self) -> None:
        """Hook: the last waiter detached before the event triggered.

        Called when an interrupt removes the final callback of a pending
        event.  Sources holding the event in a wait queue (e.g.
        :class:`~repro.sim.queues.Store`) override this to withdraw it, so
        a dead waiter can never consume an item meant for a live one.
        """

    def _process(self) -> None:
        """Invoke callbacks.  Called by the simulator exactly once."""
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)
        if self._exception is not None and not self._defused:
            # Nobody waited on this failure: surface it loudly.
            raise self._exception

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay.

    The constructor is the hottest allocation site in the simulator, so it
    initialises every field inline instead of chaining ``Event.__init__``.
    """

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._exception = None
        self._defused = False
        self.delay = delay
        sim.schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at t={self.sim.now}>"


class Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim, events: Iterable[Event]):
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimError("cannot mix events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _collect(self) -> dict[Event, Any]:
        """Outcome dict of all successfully *processed* child events.

        Timeouts are born triggered (value attached at creation), so
        ``triggered`` alone would wrongly include children that have not
        actually fired yet; only processed children count.
        """
        return {
            ev: ev._value
            for ev in self.events
            if ev.processed and ev._exception is None
        }


class AllOf(Condition):
    """Fires when *all* child events have fired; fails fast on any failure."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires when *any* child event fires (or fails, propagating the error)."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
            return
        self.succeed(self._collect())
