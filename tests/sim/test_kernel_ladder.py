"""Kernel pop order against a plain sorted reference.

The kernel keeps one ``(time, seq, event)`` heap with lazy
``fire_early`` tombstones.  Its contract is the pop order: by time, ties
broken by schedule order, and a rescheduled event ordered by its *new*
``(time, seq)`` key.  Every downstream artifact (fault-log signature,
audit verdicts, summary counters) rests on that order.

The reference checks the contract without a heap or tombstones: it
keeps the live entries in a list, pops the smallest ``(time, seq)``
each step, and re-appends a rescheduled entry under a fresh sequence
number.  Hypothesis drives both through same-instant ties, far-future
delays and ``fire_early`` reschedules, and requires identical pop
traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Spread of the generated delays (ns).
SPAN_NS = 32_768.0


def kernel_trace(delays, reschedules=()):
    """(time, label) pop order of one timeout per delay, plus one driver
    timeout per ``(pick, at, early)`` that fires timeout ``pick`` early
    to ``now + early`` when it pops at time ``at``."""
    sim = Simulator(seed=4)
    trace = []
    timeouts = []

    def record(label):
        return lambda _event: trace.append((sim.now, label))

    for idx, delay in enumerate(delays):
        timeout = sim.timeout(delay)
        timeout.add_callback(record(idx))
        timeouts.append(timeout)
    for j, (pick, at, early) in enumerate(reschedules):
        target = timeouts[pick % len(timeouts)]
        driver = sim.timeout(at)
        driver.add_callback(record(f"driver{j}"))
        driver.add_callback(
            lambda _event, target=target, early=early:
                sim.fire_early(target, early))
    sim.run()
    return trace


def reference_trace(delays, reschedules=()):
    """The same schedule replayed on a sorted list of live entries."""
    live = []
    seq = 0

    def push(time, label, action=None):
        nonlocal seq
        live.append((time, seq, label, action))
        seq += 1

    for idx, delay in enumerate(delays):
        push(delay, idx)
    for j, (pick, at, early) in enumerate(reschedules):
        push(at, f"driver{j}", (pick % len(delays), early))
    trace = []
    while live:
        entry = min(live, key=lambda e: (e[0], e[1]))
        live.remove(entry)
        now, _seq, label, action = entry
        trace.append((now, label))
        if action is None:
            continue
        target, early = action
        for queued in live:
            if queued[2] == target and queued[0] > now + early:
                live.remove(queued)
                push(now + early, target)
                break
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
                    min_size=2, max_size=12),
    reschedules=st.lists(
        st.tuples(st.integers(min_value=0, max_value=11),
                  st.floats(min_value=0.0, max_value=SPAN_NS),
                  st.sampled_from([0.0, 0.0, 64.0, 4096.0])),
        min_size=1, max_size=6),
)
def test_property_fire_early_matches_sorted_reference(delays, reschedules):
    """Tombstoned-and-rescheduled entries pop in the reference's order:
    fire_early is the parked-dispatcher wakeup path."""
    assert (kernel_trace(delays, reschedules)
            == reference_trace(delays, reschedules))


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
