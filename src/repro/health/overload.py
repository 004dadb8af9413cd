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
  Paced-out submitters are granted their slots in arrival order.
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

from collections import deque

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


class AimdWindow:
    """Additive-increase / multiplicative-decrease submission window.

    Callers pace in :meth:`wait_for_slot`, which returns holding the
    slots asked for, and hand each slot back with :meth:`release`; the
    window reacts to the cooperative-backpressure signals:

    * a clean completion with low piggybacked occupancy adds
      ``increase`` (additive probe for more room);
    * a completion reporting occupancy >= ``AIMD_PRESSURE_PERMILLE``,
      or a busy nack, multiplies the window by ``AIMD_DECREASE_FACTOR``
      — at most once per ``cooldown_ns`` of sim time, so the burst of
      completions stamped by a single congestion event costs one
      decrease, not one per ack (the standard once-per-RTT AIMD rule).

    The window *starts at the ceiling*: a client that never sees
    pressure never pays — the uncontended fast path (and the burst
    benchmark gates) are untouched.
    """

    def __init__(self, name: str,
                 lo: float = AIMD_WINDOW_MIN, hi: float = AIMD_WINDOW_MAX,
                 increase: float = AIMD_INCREASE,
                 cooldown_ns: float = AIMD_DECREASE_COOLDOWN_NS):
        self.name = name
        self.lo = lo
        self.hi = hi
        self.increase = increase
        self.cooldown_ns = cooldown_ns
        self.window = hi
        self.inflight = 0
        self.increases = 0
        self.decreases = 0
        self.paced_waits = 0
        # Slot ledger, for the pacer-slot conservation auditor.
        self.acquired = 0
        self.released = 0
        # Parked requests in arrival order: (slots, wake).
        self._queue: deque = deque()
        self._last_decrease_ns = float("-inf")
        _obs.METRICS.counter(_names.OVERLOAD_PACING_WAITS)
        self._gauge = _obs.METRICS.gauge(_names.OVERLOAD_PACING_WINDOW)
        self._gauge.set(self.window)

    def can_submit(self) -> bool:
        return self.inflight < self.window

    def acquire(self, count: int = 1) -> None:
        self.inflight += count
        self.acquired += count

    def release(self, count: int = 1) -> None:
        if count > self.inflight:
            # A double release: an accounting bug in the caller.
            raise RuntimeError(f"{self.name}: release with nothing in flight")
        self.inflight -= count
        self.released += count
        self._admit()

    @property
    def parked(self) -> int:
        """Paced-out requests waiting for their slots."""
        return len(self._queue)

    def wait_for_slot(self, sim, count: int = 1):
        """Process: pace until the window grants ``count`` slots; returns
        holding them.

        A request is granted whole while ``inflight < window``, so a
        burst never holds part of its slots while it waits for the rest
        (at the window's floor nothing else might ever release them).
        With nothing parked it is granted at once; otherwise it parks at
        the tail of a FIFO and costs no kernel event until
        :meth:`release`, or an additive increase in :meth:`on_ack`,
        grants it, with one wake at that instant.  An interrupted
        request leaves the queue, or returns the slots it was just
        handed, so the next in line gets them.
        """
        if self.can_submit() and not self._queue:
            self.acquire(count)
            return
        self.paced_waits += 1
        _obs.METRICS.counter(_names.OVERLOAD_PACING_WAITS).inc()
        wake = sim.event("pacer-wake")
        request = (count, wake)
        self._queue.append(request)
        try:
            yield wake
        except Interrupt:
            if wake.triggered:
                # Granted in the instant it was interrupted.
                self.release(count)
            else:
                self._queue.remove(request)
            raise

    def _admit(self) -> None:
        """Grant the head requests while the window has room."""
        queue = self._queue
        while queue and self.inflight < self.window:
            count, wake = queue.popleft()
            self.acquire(count)
            wake.succeed()

    def on_ack(self, occupancy_permille: int, now: float) -> None:
        """Fold one completion's piggybacked occupancy into the window."""
        if occupancy_permille >= AIMD_PRESSURE_PERMILLE:
            self._decrease(now)
        else:
            if self.window < self.hi:
                self.window = min(self.hi, self.window + self.increase)
                self.increases += 1
                self._gauge.set(self.window)
                self._admit()

    def on_busy(self, now: float) -> None:
        """A busy nack: hard pressure, decrease (cooldown still applies)."""
        self._decrease(now)

    def _decrease(self, now: float) -> None:
        if now - self._last_decrease_ns < self.cooldown_ns:
            return
        self._last_decrease_ns = now
        self.window = max(self.lo, self.window * AIMD_DECREASE_FACTOR)
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
                 calm_ticks: int = BROWNOUT_CALM_TICKS):
        self.enter = enter
        self.exit = exit_
        self.calm_ticks = calm_ticks
        self.level = BROWNOUT_NORMAL
        self.calm_streak = 0
        self.transitions: list[tuple[float, int]] = []
        self._gauge = _obs.METRICS.gauge(_names.OVERLOAD_BROWNOUT_STATE)
        self._gauge.set(self.level)

    def update(self, pressure: float, now: float) -> int:
        """Fold one tick's pressure; returns the (possibly new) level."""
        if pressure >= self.enter:
            self.calm_streak = 0
            if self.level < BROWNOUT_DEMOTE:
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
