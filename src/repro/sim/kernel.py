"""The simulator: clock, event queue, and run loop.

Simulated time is a ``float`` number of **nanoseconds**.  Determinism is
guaranteed by the scheduling key ``(time, sequence_number)``: events
scheduled for the same instant are processed in scheduling order, so a
program that performs the same calls in the same order always produces the
same trace.

The queue is one ``heapq`` of ``(time, seq, event)`` entries, and
:meth:`Simulator.schedule` is its only insertion point.  There is no
cancellation: every entry pushed is popped and processed (a timeout that
nobody waits on any more pops as a no-op).  A waiter that may be woken
early (a parked RPC dispatcher, a parked pacer submitter) therefore
waits on a plain pending :class:`~repro.sim.events.Event` that its
waker triggers, not on a timeout that would have to be pulled forward.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional, Union

from repro.sim import profile as _profile
from repro.sim.errors import DeadSimulationError, SimError, StopSimulation
from repro.sim.events import Event, Timeout
from repro.sim.process import Process
from repro.sim.rand import RandomStreams

#: Type accepted by :meth:`Simulator.run`'s ``until`` parameter.
Until = Union[None, int, float, Event]

_INF = float("inf")


class Simulator:
    """A discrete-event simulator with a nanosecond clock.

    Args:
        seed: master seed for :class:`~repro.sim.rand.RandomStreams`.
              All stochastic models derive their randomness from this.
    """

    def __init__(self, seed: int = 0):
        self._now: float = 0.0
        self._seq = 0
        self._queue: list[tuple[float, int, Event]] = []
        self._active_process: Optional[Process] = None
        self._dead = False
        self.rng = RandomStreams(seed)
        # Wall-clock profiler (repro.sim.profile); None keeps the hot
        # loop to a single extra branch.  Measurements never feed back
        # into simulated state, so profiled runs stay deterministic.
        self._profiler = _profile.DEFAULT_PROFILER
        #: Cheap event counter (monotonic, survives profiler detach) so
        #: benchmarks can compute events/s without per-event timing.
        self.events_processed = 0

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    def attach_profiler(self, profiler) -> "object":
        """Install a :class:`repro.sim.profile.KernelProfiler` (or None)."""
        self._profiler = profiler
        return profiler

    # -- event creation -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value=value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- scheduling -----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` ns from now."""
        if self._dead:
            raise DeadSimulationError("simulator has been shut down")
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, event))

    # -- run loop -------------------------------------------------------

    def run(self, until: Until = None) -> Any:
        """Run the simulation.

        Args:
            until:
                * ``None`` — run until the event queue drains;
                * a number — run until the clock reaches that time (ns);
                * an :class:`Event` — run until that event is processed and
                  return its value (re-raising its exception on failure).

        Returns:
            The value of ``until`` when it is an event, else ``None``.
        """
        if isinstance(until, Event):
            if until.processed:
                return until.value
            until.add_callback(self._stop_on)
            try:
                self._drain(_INF)
            except StopSimulation as stop:
                return stop.event.value
            # Queue drained without the target firing: deadlock.
            raise SimError(
                f"simulation ran out of events before {until!r} fired"
            )
        if until is None:
            self._drain(_INF)
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        self._drain(horizon)
        self._now = horizon
        return None

    def _drain(self, horizon: float) -> None:
        """Process all events with time <= horizon in one tight loop."""
        queue = self._queue
        pop = heappop
        count = 0
        try:
            while queue and queue[0][0] <= horizon:
                when, _seq, event = pop(queue)
                self._now = when
                count += 1
                profiler = self._profiler
                if profiler is None:
                    event._process()
                    continue
                start = _profile.perf_counter_ns()
                try:
                    event._process()
                finally:
                    end = _profile.perf_counter_ns()
                    profiler.on_event(event, when, end - start, end)
        finally:
            self.events_processed += count

    @staticmethod
    def _stop_on(event: Event) -> None:
        if event._exception is not None:
            event._defused = True
            raise event._exception
        raise StopSimulation(event)

    def shutdown(self) -> None:
        """Discard all pending events and reject further scheduling."""
        self._queue.clear()
        self._dead = True

    def __repr__(self) -> str:
        return f"<Simulator t={self._now}ns queued={len(self._queue)}>"
