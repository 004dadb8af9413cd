"""Determinism: identical seeds and call order produce identical traces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store


def trace_run(seed: int, schedule):
    """A stochastic multi-process workload; returns its event trace."""
    sim = Simulator(seed=seed)
    store = Store(sim)
    trace = []
    rng = sim.rng.stream("workload")

    def producer(tag, delays):
        for idx, delay in enumerate(delays):
            yield sim.timeout(delay + float(rng.uniform(0, 5)))
            store.put((tag, idx))
            trace.append(("put", tag, idx, round(sim.now, 6)))

    def consumer(count):
        for _ in range(count):
            item = yield store.get()
            trace.append(("got", *item, round(sim.now, 6)))

    total = 0
    for tag, delays in enumerate(schedule):
        sim.spawn(producer(tag, delays))
        total += len(delays)
    sim.spawn(consumer(total))
    sim.run()
    return trace


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    schedule=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=100.0),
                 min_size=1, max_size=5),
        min_size=1, max_size=4,
    ),
)
def test_property_same_seed_same_trace(seed, schedule):
    assert trace_run(seed, schedule) == trace_run(seed, schedule)


def test_different_seeds_usually_differ():
    schedule = [[10.0, 20.0], [15.0]]
    a = trace_run(1, schedule)
    b = trace_run(2, schedule)
    assert a != b  # the jitter draws differ


def test_rng_streams_are_independent():
    sim = Simulator(seed=0)
    first = sim.rng.stream("a").random(5).tolist()
    # Creating and consuming another stream must not disturb "a".
    sim2 = Simulator(seed=0)
    sim2.rng.stream("b").random(100)
    second = sim2.rng.stream("a").random(5).tolist()
    assert first == second
