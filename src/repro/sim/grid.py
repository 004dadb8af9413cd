"""Poll grids: where a parked poller's polling loop would have looked.

A poller that parks instead of spinning keeps the virtual schedule of
the loop it replaces: the instants at which that loop would have acted.
The vSSD and vaccel CQ collector is the one such poller: the paper's
datapath polls its completion entries (§4.1).  The loop's timeouts
build that schedule as float sums — ``now + delay``, one delay after
another — so the grid is advanced with the same sums, never with a
closed form such as ``start + k * period``, which can miss a grid point
by an ulp.
"""

from __future__ import annotations


def on_grid(now: float, next_ns: float, steps, strict: bool = False,
            wake=None) -> float:
    """Catch a virtual poll grid up to ``now``; returns its next point.

    The grid starts at ``next_ns``, a point not yet passed, and the
    loop's timeouts ``steps`` (one period, repeated) each end at the
    next point: a loop that sleeps ``poll_ns`` has one step; one that
    reads for ``read_ns`` and then sleeps has two, with a point at each
    read's issue and at its return.  The result is the first point at
    or after ``now``, or strictly after it with ``strict`` (the loop
    acted at ``now`` before the change being caught up to).

    With ``wake`` (a pending event), trigger it at that point with the
    index in ``steps`` of the timeout the loop starts there as its
    value.  It lands on the point to the last bit: ``point - now`` is
    exact once ``now >= point / 2`` (Sterbenz).  Inside a run's first
    poll period the kernel's ``now + delay`` can round.
    """
    period = len(steps)
    taken = 0
    while next_ns < now or (strict and next_ns == now):
        next_ns += steps[taken % period]
        taken += 1
    if wake is not None:
        wake.succeed(taken % period, delay=next_ns - now)
    return next_ns
