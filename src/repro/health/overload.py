"""Overload-control primitives: retry budgets, AIMD pacing, brownout.

Gray-failure scoring (:mod:`repro.health.scoring`) handles components
that *lie*; this module handles a pod that is simply *too busy*.  Three
cooperating mechanisms, all deterministic (no RNG — overload decisions
must replay bit-identically under the chaos harness):

* :class:`RetryBudget` — a token bucket funding *recovery* traffic
  (RPC retries, failover replays, PR 6 hedges) from a fixed fraction of
  goodput.  When the pod saturates, goodput stalls, the bucket drains,
  and recovery traffic stops amplifying the overload — the classic
  defense against retry-storm metastability.
* :class:`AimdWindow` — a client-side submission window driven by the
  occupancy servers piggyback on CQ entries and busy nacks.  It starts
  *at its ceiling*, so an uncontended client never notices it; the
  first pressure signal halves it, every clean ack adds one back.
* :class:`BrownoutController` — a pressure-driven ladder that sheds
  load in order of expendability: level 1 slows background work (MHD
  probes, announce traffic), level 2 demotes burst batching.  Lease
  renewals and control traffic are never shed — overload must not
  manufacture false lease lapses or quarantines.

All three expose live gauges (pre-registered at construction, per the
doorbell-counter idiom) so ``python -m repro metrics`` shows the
overload posture even when everything is idle.
"""

from __future__ import annotations

from math import ceil
from operator import attrgetter

from repro.cxl.params import (
    AIMD_DECREASE_COOLDOWN_NS,
    AIMD_DECREASE_FACTOR,
    AIMD_INCREASE,
    AIMD_PRESSURE_PERMILLE,
    AIMD_WINDOW_MAX,
    AIMD_WINDOW_MIN,
    BROWNOUT_CALM_TICKS,
    BROWNOUT_ENTER_PRESSURE,
    BROWNOUT_EXIT_PRESSURE,
    RETRY_BUDGET_BURST,
    RETRY_BUDGET_HEDGE_MIN,
    RETRY_BUDGET_RATIO,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.sim.errors import Interrupt, SimError

#: Brownout ladder rungs, least to most aggressive.
BROWNOUT_NORMAL = 0      # full service
BROWNOUT_SHED = 1        # background work slowed / skipped
BROWNOUT_DEMOTE = 2      # burst batching demoted as well


class OverloadError(SimError):
    """An op was refused by admission control and its retries ran out.

    The typed surface of a busy nack: the server's queue is full, the
    client absorbed ``retry_after_ns``-paced re-submissions up to its
    limit (or its retry budget), and the op is being handed back —
    *before* it consumed queue space anywhere.  Callers shed, defer, or
    fail the request upward; they must not blind-retry (that is what
    the pacing just spent its patience on).
    """

    def __init__(self, what: str, retry_after_ns: float = 0.0):
        super().__init__(
            f"{what}: refused by admission control"
            + (f" (retry after {retry_after_ns:.0f} ns)"
               if retry_after_ns else "")
        )
        self.retry_after_ns = retry_after_ns


class RetryBudget:
    """Token bucket funding recovery traffic from a slice of goodput.

    Every successful op deposits ``ratio`` tokens (capped at ``burst``);
    every retry/replay/hedge withdraws one.  Sustained recovery traffic
    is therefore bounded at ``ratio`` (~10%) of goodput — enough to
    ride out blips, never enough to stampede a saturated pod.  Shared
    per *client host*: RPC retries, failover replays, and hedges draw
    from the same pool, so their combined amplification is what is
    bounded.

    Hedges get a softer gate (:meth:`allows_hedge`): they are an
    optimization, so they stand down while the bucket is low instead of
    competing with correctness-critical replays for the last tokens.
    """

    def __init__(self, name: str, ratio: float = RETRY_BUDGET_RATIO,
                 burst: float = RETRY_BUDGET_BURST,
                 hedge_min: float = RETRY_BUDGET_HEDGE_MIN):
        self.name = name
        self.ratio = ratio
        self.burst = burst
        self.hedge_min = hedge_min
        self.tokens = burst          # start full: first blip is absorbed
        self.deposits = 0
        self.spent = 0
        self.denied = 0
        self.hedges_suppressed = 0
        # Conservation ledger: every token entering or leaving the bucket
        # is accounted here, so an auditor can assert
        # ``tokens == burst + credited_total - debited_total`` exactly
        # (clamped deposits and floored forced spends record the *actual*
        # delta, not the requested one).
        self.credited_total = 0.0
        self.debited_total = 0.0
        _obs.METRICS.counter(_names.OVERLOAD_RETRY_DENIED)
        _obs.METRICS.counter(_names.OVERLOAD_HEDGES_SUPPRESSED)
        self._gauge = _obs.METRICS.gauge(_names.OVERLOAD_RETRY_BUDGET)
        self._gauge.set(self.tokens)

    def on_success(self) -> None:
        """Deposit the goodput dividend for one completed op."""
        self.deposits += 1
        deposited = min(self.burst - self.tokens, self.ratio)
        self.credited_total += deposited
        self.tokens += deposited
        self._gauge.set(self.tokens)

    def try_spend(self, cost: float = 1.0) -> bool:
        """Withdraw ``cost`` tokens for one recovery action, or refuse."""
        if self.tokens >= cost:
            self.tokens -= cost
            self.spent += 1
            self.debited_total += cost
            self._gauge.set(self.tokens)
            return True
        self.denied += 1
        _obs.METRICS.counter(_names.OVERLOAD_RETRY_DENIED).inc()
        return False

    def spend_forced(self, cost: float = 1.0) -> None:
        """Deduct ``cost`` unconditionally (floored at empty).

        For recovery traffic that is *correctness-critical* and must
        never be refused — failover replays of journaled ops.  The
        withdrawal still drains the bucket, so discretionary retries
        and hedges stand down while a replay storm is in flight.
        """
        withdrawn = min(self.tokens, cost)
        self.debited_total += withdrawn
        self.tokens -= withdrawn
        self.spent += 1
        self._gauge.set(self.tokens)

    def try_spend_hedge(self, cost: float = 1.0) -> bool:
        """Like :meth:`try_spend`, but suppressed while the bucket is low."""
        if self.tokens - cost < self.hedge_min:
            self.hedges_suppressed += 1
            _obs.METRICS.counter(_names.OVERLOAD_HEDGES_SUPPRESSED).inc()
            return False
        return self.try_spend(cost)

    def allows_hedge(self) -> bool:
        """Would a hedge be admitted right now (no side effects)?"""
        return self.tokens - 1.0 >= self.hedge_min

    def __repr__(self) -> str:
        return (
            f"<RetryBudget {self.name!r} tokens={self.tokens:.1f}"
            f"/{self.burst:.0f} denied={self.denied}>"
        )


class _Waiter:
    """One paced-out submitter parked on its poll grid."""

    __slots__ = ("order", "next_ns", "poll_ns", "wake")

    def __init__(self, order: int, next_ns: float, poll_ns: float, wake):
        self.order = order
        self.next_ns = next_ns
        self.poll_ns = poll_ns
        self.wake = wake


_RANK = attrgetter("next_ns", "order")


class AimdWindow:
    """Additive-increase / multiplicative-decrease submission window.

    Callers bracket each in-flight op with :meth:`acquire` /
    :meth:`release` and pace in :meth:`wait_for_slot` before posting;
    the window reacts to the cooperative-backpressure signals:

    * a clean completion with low piggybacked occupancy adds
      ``increase`` (additive probe for more room);
    * a completion reporting occupancy >= ``pressure_permille``, or a
      busy nack, multiplies the window by ``decrease_factor`` — at most
      once per ``cooldown_ns`` of sim time, so the burst of completions
      stamped by a single congestion event costs one decrease, not one
      per ack (the standard once-per-RTT AIMD rule).

    The window *starts at the ceiling*: a client that never sees
    pressure never pays — the uncontended fast path (and the burst
    benchmark gates) are untouched.
    """

    def __init__(self, name: str,
                 lo: float = AIMD_WINDOW_MIN, hi: float = AIMD_WINDOW_MAX,
                 increase: float = AIMD_INCREASE,
                 decrease_factor: float = AIMD_DECREASE_FACTOR,
                 pressure_permille: int = AIMD_PRESSURE_PERMILLE,
                 cooldown_ns: float = AIMD_DECREASE_COOLDOWN_NS):
        self.name = name
        self.lo = lo
        self.hi = hi
        self.increase = increase
        self.decrease_factor = decrease_factor
        self.pressure_permille = pressure_permille
        self.cooldown_ns = cooldown_ns
        self.window = hi
        self.inflight = 0
        self.increases = 0
        self.decreases = 0
        self.paced_waits = 0
        # Slot ledger, for the pacer-slot conservation auditor.
        self.acquired = 0
        self.released = 0
        self._parked: list[_Waiter] = []
        self._park_count = 0
        # (process, sim time, park order) of the last woken admission.
        self._readmit: tuple = (None, None, 0)
        self._last_decrease_ns = float("-inf")
        _obs.METRICS.counter(_names.OVERLOAD_PACING_WAITS)
        self._gauge = _obs.METRICS.gauge(_names.OVERLOAD_PACING_WINDOW)
        self._gauge.set(self.window)

    def can_submit(self) -> bool:
        return self.inflight < self.window

    def acquire(self) -> None:
        self.inflight += 1
        self.acquired += 1

    def release(self) -> None:
        if self.inflight <= 0:
            # A double release: an accounting bug in the caller.
            raise RuntimeError(f"{self.name}: release with nothing in flight")
        self.inflight -= 1
        self.released += 1
        self._arm()

    @property
    def parked(self) -> int:
        """Paced-out submitters waiting for a slot."""
        return len(self._parked)

    @property
    def armed(self) -> int:
        """Parked submitters holding a pending wake."""
        return sum(1 for waiter in self._parked
                   if waiter.wake.triggered and not waiter.wake.processed)

    def wait_for_slot(self, sim, poll_ns: float = 2_000.0):
        """Process: pace until the window admits one more in-flight op.

        A paced-out submitter parks on its own virtual poll grid —
        ``park + poll_ns``, then ``+= poll_ns``, the same float sums a
        ``while not can_submit(): timeout(poll_ns)`` loop would make —
        and costs no kernel event until a slot opens.  When one does
        (:meth:`release`, or an additive increase in :meth:`on_ack`),
        the first ``ceil(window - inflight)`` parked submitters by (next
        grid point, park order) — the ones that loop would admit next —
        each get one wake at that grid point, so admission times are
        the loop's.  A woken submitter checks :meth:`can_submit` again;
        if a fresh arrival or a decrease took the slot, it advances its
        grid and parks unarmed.

        Ties: a grid point equal to the opening instant admits at that
        instant.  Submitters whose grid points coincide rank in park
        order, and one that parks again in the step that admitted it
        (pacing several slots in a row) keeps its place.
        """
        if self.can_submit():
            return
        self.paced_waits += 1
        _obs.METRICS.counter(_names.OVERLOAD_PACING_WAITS).inc()
        proc = sim.active_process
        if self._readmit[:2] == (proc, sim.now):
            order = self._readmit[2]
        else:
            order = self._park_count
            self._park_count += 1
        waiter = _Waiter(order, sim.now + poll_ns, poll_ns,
                         sim.event("pacer-wake"))
        self._parked.append(waiter)
        try:
            while True:
                yield waiter.wake
                if self.can_submit():
                    break
                waiter.next_ns += poll_ns
                waiter.wake = sim.event("pacer-wake")
        except Interrupt:
            # Leaving while parked: a wake armed for us goes to the next
            # submitter in line.
            self._parked.remove(waiter)
            self._arm()
            raise
        self._parked.remove(waiter)
        self._readmit = (proc, sim.now, order)

    def _arm(self) -> None:
        """Wake the parked submitters the polling loop would admit next."""
        if not self._parked:
            return
        free = ceil(self.window - self.inflight)
        if free <= 0:
            return
        sim = self._parked[0].wake.sim
        now = sim.now
        for waiter in self._parked:
            # Catch the grid up over the polls that would have found the
            # window full (armed waiters are already at or past now).
            next_ns = waiter.next_ns
            while next_ns < now:
                next_ns += waiter.poll_ns
            waiter.next_ns = next_ns
        for waiter in sorted(self._parked, key=_RANK)[:free]:
            if not waiter.wake.triggered:
                # Lands on the grid point to the last bit: next - now is
                # exact once now >= poll_ns (Sterbenz).  Inside a run's
                # first poll period the kernel's now + delay can round.
                waiter.wake.succeed(delay=waiter.next_ns - now)

    def on_ack(self, occupancy_permille: int, now: float) -> None:
        """Fold one completion's piggybacked occupancy into the window."""
        if occupancy_permille >= self.pressure_permille:
            self._decrease(now)
        else:
            if self.window < self.hi:
                self.window = min(self.hi, self.window + self.increase)
                self.increases += 1
                self._gauge.set(self.window)
                self._arm()

    def on_busy(self, now: float) -> None:
        """A busy nack: hard pressure, decrease (cooldown still applies)."""
        self._decrease(now)

    def _decrease(self, now: float) -> None:
        if now - self._last_decrease_ns < self.cooldown_ns:
            return
        self._last_decrease_ns = now
        self.window = max(self.lo, self.window * self.decrease_factor)
        self.decreases += 1
        self._gauge.set(self.window)

    def __repr__(self) -> str:
        return (
            f"<AimdWindow {self.name!r} window={self.window:.1f} "
            f"inflight={self.inflight}>"
        )


class BrownoutController:
    """Hysteresis ladder turning pressure readings into shed levels.

    Fed one pressure scalar in ``[0, 1]`` per evaluation tick (the pool
    derives it from admission rejections, ring saturation, and budget
    exhaustion deltas).  Pressure at or above ``enter`` climbs one rung
    per tick; descending a rung requires ``calm_ticks`` *consecutive*
    ticks at or below ``exit`` — so the ladder reacts within one tick
    but relaxes an order of magnitude slower, and a load oscillating
    around the threshold cannot flap the pod's burst mode.

    The controller only decides the level; the pool applies the rung's
    actions (probe stretch, announce shedding, burst demotion) and
    records transitions in ``transitions`` for the soak's audit trail.
    """

    def __init__(self, enter: float = BROWNOUT_ENTER_PRESSURE,
                 exit_: float = BROWNOUT_EXIT_PRESSURE,
                 calm_ticks: int = BROWNOUT_CALM_TICKS,
                 max_level: int = BROWNOUT_DEMOTE):
        self.enter = enter
        self.exit = exit_
        self.calm_ticks = calm_ticks
        self.max_level = max_level
        self.level = BROWNOUT_NORMAL
        self.calm_streak = 0
        self.transitions: list[tuple[float, int]] = []
        self._gauge = _obs.METRICS.gauge(_names.OVERLOAD_BROWNOUT_STATE)
        self._gauge.set(self.level)

    def update(self, pressure: float, now: float) -> int:
        """Fold one tick's pressure; returns the (possibly new) level."""
        if pressure >= self.enter:
            self.calm_streak = 0
            if self.level < self.max_level:
                self._move(self.level + 1, now)
        elif pressure <= self.exit:
            self.calm_streak += 1
            if self.calm_streak >= self.calm_ticks and self.level > 0:
                self.calm_streak = 0
                self._move(self.level - 1, now)
        else:
            # Gray zone: hold the rung, but calm must restart.
            self.calm_streak = 0
        return self.level

    def _move(self, level: int, now: float) -> None:
        self.level = level
        self.transitions.append((now, level))
        self._gauge.set(level)

    def __repr__(self) -> str:
        return f"<BrownoutController level={self.level}>"
