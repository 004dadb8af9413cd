"""Unit tests for composite events (AllOf / AnyOf) and callbacks."""

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.errors import SimError


def test_allof_waits_for_all():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(10.0, value="a")
        t2 = sim.timeout(20.0, value="b")
        results = yield t1 & t2
        return (sorted(results.values()), sim.now)

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (["a", "b"], 20.0)


def test_anyof_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(10.0, value="fast")
        t2 = sim.timeout(20.0, value="slow")
        results = yield t1 | t2
        return (list(results.values()), sim.now)

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == (["fast"], 10.0)
    sim.run()  # let the slow timeout drain


def test_empty_allof_fires_immediately():
    sim = Simulator()

    def proc(sim):
        results = yield AllOf(sim, [])
        return results

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == {}


def test_allof_propagates_failure():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(5.0)
        raise IOError("device gone")

    def proc(sim):
        ok = sim.timeout(50.0)
        bad = sim.spawn(failing(sim))
        try:
            yield AllOf(sim, [ok, bad])
        except IOError as exc:
            return f"failed: {exc}"

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == "failed: device gone"


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimError):
        AllOf(sim1, [sim1.event(), sim2.event()])


def test_callback_after_processing_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    fired = []
    ev.add_callback(lambda e: fired.append(e.value))
    assert fired == ["v"]


def test_repr_shows_state():
    sim = Simulator()
    ev = sim.event("my-event")
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    sim.run()
    assert "processed" in repr(ev)
