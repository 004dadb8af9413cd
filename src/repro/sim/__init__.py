"""Deterministic discrete-event simulation kernel.

Every hardware model in this repository (CXL links, PCIe devices, network
wires, orchestrator control loops) runs on this kernel.  It follows the
classic event-queue design: simulated time is a monotonically increasing
clock in **nanoseconds**, behaviour is expressed as generator-based
processes that ``yield`` events, and the :class:`~repro.sim.kernel.Simulator`
advances time by popping the earliest scheduled event.

The kernel is intentionally simpy-like so the models read like standard
discrete-event simulation code, but it is self-contained (no third-party
simulation dependency) and fully deterministic: identical seeds and
identical call order produce identical traces.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def pinger(sim):
        yield sim.timeout(100.0)      # wait 100 ns
        return "pong"

    proc = sim.spawn(pinger(sim))
    sim.run()
    assert proc.value == "pong"
    assert sim.now == 100.0
"""

from repro.sim.errors import Interrupt, SimError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.grid import on_grid
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.queues import FilterStore, Store
from repro.sim.rand import RandomStreams
from repro.sim.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FilterStore",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
    "on_grid",
]
