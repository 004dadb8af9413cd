"""Kernel pop order against a plain sorted reference.

The kernel keeps one ``(time, seq, event)`` heap and no cancellation.
Its contract is the pop order: by time, ties broken by schedule order,
and an event triggered while it waits (a parked poller's wake) ordered
by the ``(now + delay, seq)`` key it gets when triggered.  Every downstream
artifact (fault-log signature, audit verdicts, summary counters) rests
on that order.

The reference checks the contract without a heap: it keeps the live
entries in a list, pops the smallest ``(time, seq)`` each step, and
appends a woken entry under a fresh sequence number.  Hypothesis drives
both through same-instant ties, far-future delays and wake-ups of
pending events, and requires identical pop traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Spread of the generated delays (ns).
SPAN_NS = 32_768.0


def kernel_trace(delays, wakes=()):
    """(time, label) pop order of one timeout per delay, plus one driver
    timeout per ``(pick, at, delay)`` that, when it pops at time ``at``,
    triggers pending event ``pick`` to fire ``delay`` later unless an
    earlier driver already has."""
    sim = Simulator(seed=4)
    trace = []

    def record(label):
        return lambda _event: trace.append((sim.now, label))

    for idx, delay in enumerate(delays):
        sim.timeout(delay).add_callback(record(idx))
    pending = []
    for idx in range(len(wakes)):
        event = sim.event()
        event.add_callback(record(f"wake{idx}"))
        pending.append(event)

    def trigger(target, delay):
        if not target.triggered:
            target.succeed(delay=delay)

    for j, (pick, at, delay) in enumerate(wakes):
        driver = sim.timeout(at)
        driver.add_callback(record(f"driver{j}"))
        driver.add_callback(
            lambda _event, target=pending[pick % len(pending)], delay=delay:
                trigger(target, delay))
    sim.run()
    return trace


def reference_trace(delays, wakes=()):
    """The same schedule replayed on a sorted list of live entries."""
    live = []
    seq = 0

    def push(time, label, action=None):
        nonlocal seq
        live.append((time, seq, label, action))
        seq += 1

    for idx, delay in enumerate(delays):
        push(delay, idx)
    for j, (pick, at, delay) in enumerate(wakes):
        push(at, f"driver{j}", (pick % len(wakes), delay))
    woken = set()
    trace = []
    while live:
        entry = min(live, key=lambda e: (e[0], e[1]))
        live.remove(entry)
        now, _seq, label, action = entry
        trace.append((now, label))
        if action is not None and action[0] not in woken:
            target, delay = action
            woken.add(target)
            push(now + delay, f"wake{target}")
    return trace


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(
    st.one_of(
        # Dense near-term delays: same-instant ties are likely.
        st.sampled_from([0.0, 64.0, 128.0, 128.0, 4096.0]),
        # A narrow band: near-equal times.
        st.floats(min_value=SPAN_NS - 256.0, max_value=SPAN_NS + 256.0),
        # Far-future entries.
        st.floats(min_value=0.0, max_value=8.0 * SPAN_NS),
    ),
    min_size=1, max_size=24,
))
def test_property_pop_order_matches_sorted_reference(delays):
    assert kernel_trace(delays) == reference_trace(delays)


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=4.0 * SPAN_NS),
                    min_size=1, max_size=12),
    wakes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11),
                  st.floats(min_value=0.0, max_value=SPAN_NS),
                  st.sampled_from([0.0, 0.0, 64.0, 4096.0])),
        min_size=1, max_size=6),
)
def test_property_woken_events_match_sorted_reference(delays, wakes):
    """Events woken by another event's callback pop in the reference's
    order: a parked dispatcher is woken at once, a parked pacer
    submitter at its next grid point."""
    assert kernel_trace(delays, wakes) == reference_trace(delays, wakes)


def test_same_instant_ties_pop_in_schedule_order():
    sim = Simulator(seed=0)
    order = []

    def waiter(idx):
        yield sim.timeout(500.0)
        order.append(idx)

    for idx in range(16):
        sim.spawn(waiter(idx), name=f"tie{idx}")
    sim.run()
    assert order == list(range(16))
