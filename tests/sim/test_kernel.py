"""Unit tests for the simulation kernel: clock, scheduling, run loop."""

import pytest

from repro.sim import Event, SimError, Simulator
from repro.sim.errors import DeadSimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(125.0)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 125.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1000.0)

    sim.spawn(proc(sim))
    sim.run(until=300.0)
    assert sim.now == 300.0
    sim.run()  # drain the rest
    assert sim.now == 1000.0


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(50.0)
        return "done"

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == "done"
    assert sim.now == 50.0


def test_run_until_event_raises_on_deadlock():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimError, match="ran out of events"):
        sim.run(until=never)


def test_run_until_past_time_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(500.0)

    sim.spawn(proc(sim))
    sim.run(until=400.0)
    with pytest.raises(SimError, match="in the past"):
        sim.run(until=100.0)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimError):
        sim.schedule(ev, delay=-1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-5.0)


def test_shutdown_rejects_scheduling():
    sim = Simulator()
    sim.shutdown()
    with pytest.raises(DeadSimulationError):
        sim.timeout(1.0)


def test_unwaited_failed_event_raises_at_processing():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")
