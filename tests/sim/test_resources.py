"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, SimError, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def worker(sim, res, tag, hold):
        with res.request() as req:
            yield req
            grants.append((tag, sim.now))
            yield sim.timeout(hold)

    for tag in ("a", "b", "c"):
        sim.spawn(worker(sim, res, tag, hold=100.0))
    sim.run()
    # a, b start immediately; c waits for a slot at t=100.
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 100.0)]


def test_context_manager_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing(sim, res):
        with res.request() as req:
            yield req
            raise ValueError("oops")

    def follower(sim, res, out):
        with res.request() as req:
            yield req
            out.append(sim.now)

    out = []

    def driver(sim):
        bad = sim.spawn(failing(sim, res))
        sim.spawn(follower(sim, res, out))
        try:
            yield bad
        except ValueError:
            pass

    sim.spawn(driver(sim))
    sim.run()
    assert out == [0.0]
    assert res.count == 0


def test_fifo_order_within_equal_priority():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(10.0)

    for tag in range(5):
        sim.spawn(worker(sim, res, tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_release_unheld_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = other.request()
    sim.run()
    with pytest.raises(SimError):
        res.release(req)


def test_cancel_pending_request():
    # Releasing a request that was never granted withdraws it: the next
    # request in line is granted at the holder's release, and the
    # withdrawn one never triggers.
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(100.0)

    sim.spawn(holder(sim, res))
    sim.run(until=1.0)
    withdrawn = res.request()
    following = res.request()
    res.release(withdrawn)
    res.release(withdrawn)  # a second release is a no-op
    sim.run(until=following)
    assert sim.now == 100.0
    assert res.count == 1
    sim.run()
    assert not withdrawn.triggered


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_double_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim, res):
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # second release must be a no-op

    sim.spawn(proc(sim, res))
    sim.run()
    assert res.count == 0
