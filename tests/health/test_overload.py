"""Unit tests for the overload-control primitives.

RetryBudget, AimdWindow, and BrownoutController are deliberately pure
(no RNG, no hidden clock): every decision is a function of explicit
inputs, so the chaos harness can replay overload episodes bit-identically.
These tests pin the arithmetic — token flow, window dynamics, ladder
hysteresis — that the datapath and pool layers build on.
"""

import pytest

from repro.health import (
    BROWNOUT_DEMOTE,
    BROWNOUT_NORMAL,
    BROWNOUT_SHED,
    AimdWindow,
    BrownoutController,
    RetryBudget,
)
from repro.sim import Simulator


# ------------------------------------------------------------ RetryBudget


def test_budget_starts_full_and_drains():
    b = RetryBudget("t", ratio=0.1, burst=4.0, hedge_min=1.0)
    assert b.tokens == 4.0
    for _ in range(4):
        assert b.try_spend(1.0)
    assert not b.try_spend(1.0)          # empty: refused
    assert b.denied == 1
    assert b.spent == 4


def test_budget_refills_from_goodput_capped_at_burst():
    b = RetryBudget("t", ratio=0.5, burst=2.0, hedge_min=0.0)
    b.tokens = 0.0
    b.on_success()
    b.on_success()
    assert b.tokens == 1.0               # 2 deposits at ratio 0.5
    for _ in range(10):
        b.on_success()
    assert b.tokens == 2.0               # capped at burst
    # Sustained retry rate is bounded at ~ratio of goodput: 10 successes
    # fund at most 10 * ratio retries.
    assert b.deposits == 12


def test_spend_forced_never_refuses_but_still_drains():
    b = RetryBudget("t", burst=2.0, hedge_min=0.0)
    b.spend_forced(5.0)                  # more than the bucket holds
    assert b.tokens == 0.0               # floored, not negative
    assert b.denied == 0                 # forced spends are never denied
    # The drain is visible to discretionary traffic: a retry is refused
    # until goodput redeposits.
    assert not b.try_spend(1.0)


def test_hedges_stand_down_before_retries_do():
    b = RetryBudget("t", burst=8.0, hedge_min=4.0)
    b.tokens = 4.5
    # 4.5 - 1 < hedge_min: hedge suppressed, tokens untouched...
    assert not b.try_spend_hedge(1.0)
    assert b.tokens == 4.5
    assert b.hedges_suppressed == 1
    assert not b.allows_hedge()
    # ...but a correctness retry at the same level is still served.
    assert b.try_spend(1.0)
    b.tokens = 8.0
    assert b.allows_hedge()
    assert b.try_spend_hedge(1.0)
    assert b.tokens == 7.0


# ------------------------------------------------------------- AimdWindow


def test_window_starts_at_ceiling_so_fast_path_is_untouched():
    w = AimdWindow("t", lo=2.0, hi=64.0)
    assert w.window == 64.0
    assert w.can_submit()
    # An uncontended client never waits: clean acks at the ceiling are
    # no-ops, not increases.
    w.on_ack(0, now=0.0)
    assert w.window == 64.0
    assert w.increases == 0


def test_pressure_halves_multiplicatively_and_acks_rebuild_additively():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=0.0)
    w.on_ack(900, now=0.0)               # occupancy >= 750 permille
    assert w.window == 32.0
    w.on_busy(now=1.0)                   # busy nack: same signal
    assert w.window == 16.0
    assert w.decreases == 2
    for i in range(3):
        w.on_ack(100, now=2.0 + i)
    assert w.window == 19.0              # +1 per clean ack
    assert w.increases == 3


def test_decrease_is_rate_limited_by_cooldown():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=1_000.0)
    # A burst of completions all stamped by one congestion event must
    # cost one decrease, not one per ack.
    for _ in range(10):
        w.on_ack(1000, now=100.0)
    assert w.window == 32.0
    assert w.decreases == 1
    w.on_busy(now=2_000.0)               # past the cooldown: counts again
    assert w.window == 16.0


def test_window_floors_at_lo():
    w = AimdWindow("t", lo=2.0, hi=64.0, cooldown_ns=0.0)
    for i in range(20):
        w.on_busy(now=float(i))
    assert w.window == 2.0               # never below the floor


def test_release_with_nothing_in_flight_raises():
    """A release with nothing in flight is an accounting bug (a double
    release somewhere); clamping ``inflight`` at zero would hide it."""
    w = AimdWindow("t", lo=1.0, hi=2.0)
    w.acquire()
    w.release()
    with pytest.raises(RuntimeError, match="nothing in flight"):
        w.release()
    assert w.inflight == 0               # the bad release changed nothing
    assert w.can_submit()


def test_wait_for_slot_paces_until_a_release():
    sim = Simulator()
    w = AimdWindow("t", lo=1.0, hi=2.0)
    w.acquire()
    w.acquire()                          # window full
    times = {}

    def submitter():
        yield from w.wait_for_slot(sim, poll_ns=500.0)
        w.acquire()
        times["admitted"] = sim.now

    def releaser():
        yield sim.timeout(5_000.0)
        w.release()

    p = sim.spawn(submitter())
    sim.spawn(releaser())
    sim.run(until=p)
    assert times["admitted"] >= 5_000.0
    assert w.paced_waits == 1
    assert w.inflight == 2


# ----------------------------------------------------- BrownoutController


def test_ladder_climbs_one_rung_per_hot_tick():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    assert c.update(0.9, now=0.0) == BROWNOUT_SHED
    assert c.update(0.9, now=1.0) == BROWNOUT_DEMOTE
    assert c.update(0.9, now=2.0) == BROWNOUT_DEMOTE   # capped at max
    assert [lvl for _, lvl in c.transitions] == [1, 2]


def test_descent_needs_consecutive_calm_ticks():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    c.update(0.9, now=0.0)
    for i in range(3):
        assert c.update(0.0, now=1.0 + i) == BROWNOUT_SHED
    assert c.update(0.0, now=4.0) == BROWNOUT_NORMAL   # 4th calm tick
    # Relaxation is an order of magnitude slower than reaction: one hot
    # tick climbed, four calm ticks descended.
    assert [lvl for _, lvl in c.transitions] == [1, 0]


def test_gray_zone_holds_the_rung_and_resets_calm():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=2)
    c.update(0.9, now=0.0)
    c.update(0.0, now=1.0)               # calm 1/2
    c.update(0.3, now=2.0)               # gray: hold, calm restarts
    c.update(0.0, now=3.0)               # calm 1/2 again
    assert c.level == BROWNOUT_SHED
    c.update(0.0, now=4.0)               # calm 2/2
    assert c.level == BROWNOUT_NORMAL


def test_oscillating_load_cannot_flap_the_ladder():
    c = BrownoutController(enter=0.5, exit_=0.125, calm_ticks=4)
    # Pressure bouncing between hot and gray: level saturates at the
    # ceiling and stays there — no up/down churn for the pool to apply.
    levels = [c.update(p, now=float(i))
              for i, p in enumerate([0.6, 0.3, 0.6, 0.3, 0.6, 0.3])]
    assert levels == [1, 1, 2, 2, 2, 2]
    assert [lvl for _, lvl in c.transitions] == [1, 2]
