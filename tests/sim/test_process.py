"""Unit tests for processes: waiting, return values, interrupts, errors."""

import pytest

from repro.sim import Interrupt, SimError, Simulator


def test_process_return_value_becomes_event_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 42
    assert not p.is_alive


def test_process_waits_on_another_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(30.0)
        return "child-result"

    def parent(sim):
        result = yield sim.spawn(child(sim))
        return result

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "child-result"
    assert sim.now == 30.0


def test_yield_already_finished_process_resumes():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5.0)
        return "early"

    def parent(sim, child_proc):
        yield sim.timeout(100.0)
        result = yield child_proc  # already finished at t=5
        return result

    c = sim.spawn(child(sim))
    p = sim.spawn(parent(sim, c))
    sim.run()
    assert p.value == "early"


def test_exception_in_process_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child blew up")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return f"caught: {exc}"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "caught: child blew up"


def test_uncaught_process_exception_raises_at_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("uncaught")

    sim.spawn(proc(sim))
    with pytest.raises(RuntimeError, match="uncaught"):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(1000.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return ("slept", None, sim.now)

    def interrupter(sim, target):
        yield sim.timeout(10.0)
        target.interrupt(cause="nic-failure")

    target = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, target))
    sim.run()
    assert target.value == ("interrupted", "nic-failure", 10.0)


def test_interrupt_detaches_from_waited_event():
    sim = Simulator()
    shared = sim.event()
    resumed = []

    def waiter(sim, tag):
        try:
            value = yield shared
            resumed.append((tag, value))
        except Interrupt:
            resumed.append((tag, "interrupted"))

    a = sim.spawn(waiter(sim, "a"))
    sim.spawn(waiter(sim, "b"))

    def driver(sim):
        yield sim.timeout(5.0)
        a.interrupt()
        yield sim.timeout(5.0)
        shared.succeed("payload")

    sim.spawn(driver(sim))
    sim.run()
    assert sorted(resumed) == [("a", "interrupted"), ("b", "payload")]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(proc(sim))
    sim.run()
    with pytest.raises(SimError):
        p.interrupt()


def test_interrupt_after_completion_race_is_ignored():
    # Interrupt scheduled for the same instant the process finishes must
    # not blow up even though the process is already dead when delivered.
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)
        return "done"

    def interrupter(sim, target):
        yield sim.timeout(10.0)
        if target.is_alive:
            target.interrupt()

    p = sim.spawn(proc(sim))
    sim.spawn(interrupter(sim, p))
    sim.run()
    assert p.value == "done"


def test_yielding_non_event_raises_simerror_in_process():
    sim = Simulator()

    def proc(sim):
        try:
            yield 42
        except SimError as exc:
            return str(exc)

    p = sim.spawn(proc(sim))
    sim.run()
    assert "not an Event" in p.value


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_active_process_visible_during_step():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.spawn(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


def test_deep_chain_of_immediate_yields_no_recursion_error():
    # 10k consecutive yields of already-processed events must not recurse.
    sim = Simulator()
    done = sim.event()
    done.succeed("x")
    sim.run()  # process `done`

    def proc(sim):
        for _ in range(10_000):
            yield done
        return "ok"

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == "ok"
