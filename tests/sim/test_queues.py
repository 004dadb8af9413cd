"""Unit tests for Store."""

from repro.sim import Interrupt, Simulator, Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(3):
            store.put(i)
            yield sim.timeout(1.0)

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.spawn(producer(sim, store))
    sim.spawn(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer(sim, store):
        item = yield store.get()
        times.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(25.0)
        store.put("late")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert times == [("late", 25.0)]


def test_try_get_nonblocking():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    sim.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_len_reports_stored_items():
    sim = Simulator()
    store = Store(sim)
    for i in range(4):
        store.put(i)
    sim.run()
    assert len(store) == 4


def test_put_schedules_no_event():
    # Nothing waits on a put: with no getter waiting it only stores the
    # item, and handing an item to a waiting get schedules that get's
    # event and nothing else.
    sim = Simulator()
    store = Store(sim)
    before = sim._seq
    assert store.put("stored") is None
    assert sim._seq == before
    assert list(store.items) == ["stored"]
    got = store.get()
    waiting = store.get()
    sim.run()
    assert got.value == "stored"
    before = sim._seq
    store.put("handed")
    assert sim._seq == before + 1
    sim.run()
    assert waiting.value == "handed"
    assert not store.items


def test_interrupted_getter_does_not_swallow_items():
    # The stale-waiter leak: a consumer interrupted while blocked on
    # get() must be withdrawn from the wait queue, or the next put()
    # hands its item to the dead process and live consumers starve.
    sim = Simulator()
    store = Store(sim)
    got = []

    def doomed(sim, store):
        try:
            yield store.get()
            got.append("doomed")  # pragma: no cover
        except Interrupt:
            pass

    def survivor(sim, store):
        item = yield store.get()
        got.append(item)

    def driver(sim, store, victim):
        yield sim.timeout(1.0)
        victim.interrupt(cause="torn down")
        yield sim.timeout(1.0)
        store.put("payload")

    victim = sim.spawn(doomed(sim, store))
    sim.spawn(survivor(sim, store))
    sim.spawn(driver(sim, store, victim))
    sim.run()
    assert got == ["payload"]
    assert not store._gets

