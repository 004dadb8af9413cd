"""The simulator: clock, event queue, and run loop.

Simulated time is a ``float`` number of **nanoseconds**.  Determinism is
guaranteed by the scheduling key ``(time, sequence_number)``: events
scheduled for the same instant are processed in scheduling order, so a
program that performs the same calls in the same order always produces the
same trace.

The queue is one ``heapq`` of ``(time, seq, event)`` entries, and
:meth:`Simulator.schedule` is its only insertion point.  Cancellation is
*lazy*: :meth:`Simulator.fire_early` tombstones the old entry's sequence
number (an O(1) set insert) and schedules a fresh one instead of
re-sorting the heap; stale entries are skipped when they reach the head.
This is what lets a sender-side notify hook wake a parked poller without
the kernel ever paying for the abandoned watchdog entry.
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
        #: Sequence numbers of tombstoned (rescheduled) entries still in
        #: ``_queue``.
        self._stale: set[int] = set()
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
        #: In-sim notify rendezvous: key -> list of parked Timeouts that a
        #: publisher may fire early (see repro.channel poll elision).
        self.notify_waiters: dict[Any, list[Event]] = {}
        #: Last ``state`` published per notify key (e.g. a sender's
        #: cumulative publish count).  A would-be parker compares it with
        #: its own consumed count to close the commit-to-landing race: a
        #: publish that has committed but not yet landed at the media
        #: shows up here before it is pollable.
        self.notify_state: dict[Any, Any] = {}

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

    # Alias familiar to simpy users.
    process = spawn

    # -- scheduling -----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Insert a triggered event into the queue ``delay`` ns from now."""
        if self._dead:
            raise DeadSimulationError("simulator has been shut down")
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        t = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event._sched_seq = seq
        event._sched_time = t
        heappush(self._queue, (t, seq, event))

    def fire_early(self, event: Event, delay: float = 0.0) -> bool:
        """Reschedule a queued event to ``now + delay`` if that is earlier.

        The original queue entry is tombstoned (lazy O(1) cancel) and a
        fresh entry pushed; relative order against other events follows
        the *new* ``(time, seq)`` key.  Returns False without side effects
        when the event is not queued, already processed, or already due
        no later than the requested time.
        """
        if event.callbacks is None or event._sched_seq is None:
            return False
        t_new = self._now + delay
        if event._sched_time <= t_new:
            return False
        self._stale.add(event._sched_seq)
        self.schedule(event, delay)
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue[0][0] if self._prepare_head() else _INF

    def _prepare_head(self) -> bool:
        """Pop tombstoned entries off the head; False if the queue is empty."""
        queue = self._queue
        stale = self._stale
        while queue and stale and queue[0][1] in stale:
            stale.discard(heappop(queue)[1])
        return bool(queue)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._prepare_head():
            raise SimError("step() on an empty event queue")
        when, _seq, event = heappop(self._queue)
        self._now = when
        self.events_processed += 1
        profiler = self._profiler
        if profiler is None:
            event._process()
            return
        start = _profile.perf_counter_ns()
        try:
            event._process()
        finally:
            end = _profile.perf_counter_ns()
            profiler.on_event(event, when, end - start, end)

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
            while self._prepare_head():
                if queue[0][0] > horizon:
                    break
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

    def notify(self, key: Any, state: Any = None) -> int:
        """Fire every parked waiter registered under ``key`` early.

        The sender-side half of poll elision: publishers call this after
        committing data so idle pollers waiting on a far-future watchdog
        timeout wake now instead.  Returns the number of waiters woken.
        Waiters register by appending a *scheduled* event to
        ``notify_waiters[key]`` and must deregister themselves.

        ``state`` (when not None) is stored in :attr:`notify_state` for
        waiters that were awake when the notify fired: before parking
        they compare it against their own progress and keep polling if
        the publisher is ahead.
        """
        if state is not None:
            self.notify_state[key] = state
        waiters = self.notify_waiters.get(key)
        if not waiters:
            return 0
        woken = 0
        for ev in waiters:
            if self.fire_early(ev):
                woken += 1
        return woken

    def shutdown(self) -> None:
        """Discard all pending events and reject further scheduling."""
        self._queue.clear()
        self._stale.clear()
        self._dead = True

    def __repr__(self) -> str:
        queued = len(self._queue) - len(self._stale)
        return f"<Simulator t={self._now}ns queued={queued}>"
