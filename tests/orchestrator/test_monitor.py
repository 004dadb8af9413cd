"""Monitor-loop tests: heartbeat timeout -> host down -> failover.

These drive the orchestrator's periodic monitor directly (no channels):
heartbeats are injected with ``ingest_heartbeat`` and time advanced on
the simulator, which is exactly what the wire layer does — minus the
wire.
"""

from repro.orchestrator import Orchestrator
from repro.sim import Simulator


def build(sim, heartbeat_timeout_ns=20_000_000.0):
    orch = Orchestrator(sim, heartbeat_timeout_ns=heartbeat_timeout_ns)
    orch.register_device(1, "h0", "nic")
    orch.register_device(2, "h1", "nic")
    return orch


def beat(sim, orch, hosts, every_ns=5_000_000.0):
    def loop():
        while True:
            for host in hosts:
                orch.ingest_heartbeat(host)
            yield sim.timeout(every_ns)
    return sim.spawn(loop())


def test_heartbeat_timeout_fails_over_assignments():
    sim = Simulator(seed=1)
    orch = build(sim)
    assignment = orch.request_device("h2", "nic")
    victim_owner = orch.board.get(assignment.device_id).owner_host
    survivor = {"h0": "h1", "h1": "h0"}[victim_owner]
    # Both hosts heartbeat once; then only the survivor keeps beating.
    orch.ingest_heartbeat(victim_owner)
    beat(sim, orch, [survivor])
    orch.start(check_interval_ns=5_000_000.0)
    sim.run(until=sim.timeout(60_000_000.0))
    assert orch.failovers == 1
    assert assignment.generation == 1
    assert orch.board.get(assignment.device_id).owner_host == survivor
    for device in orch.board.devices():
        if device.owner_host == victim_owner:
            assert not device.healthy
    orch.stop()


def test_live_heartbeats_prevent_failover():
    sim = Simulator(seed=2)
    orch = build(sim)
    assignment = orch.request_device("h2", "nic")
    beat(sim, orch, ["h0", "h1"])
    orch.start(check_interval_ns=5_000_000.0)
    sim.run(until=sim.timeout(100_000_000.0))
    assert orch.failovers == 0
    assert assignment.generation == 0
    assert all(t.healthy for t in orch.board.devices())
    orch.stop()


def test_silent_host_without_borrowers_only_marks_unhealthy():
    sim = Simulator(seed=3)
    orch = build(sim)
    orch.ingest_heartbeat("h0")  # one beat, then silence
    beat(sim, orch, ["h1"])
    orch.start(check_interval_ns=5_000_000.0)
    sim.run(until=sim.timeout(60_000_000.0))
    assert orch.failovers == 0
    assert not orch.board.get(1).healthy
    assert orch.board.get(2).healthy
    orch.stop()


def test_dead_host_with_no_replacement_parks_assignment():
    sim = Simulator(seed=4)
    orch = Orchestrator(sim, heartbeat_timeout_ns=20_000_000.0)
    orch.register_device(1, "h0", "nic")
    assignment = orch.request_device("h1", "nic")
    orch.ingest_heartbeat("h0")
    orch.start(check_interval_ns=5_000_000.0)
    sim.run(until=sim.timeout(60_000_000.0))
    assert orch.failovers == 0
    assert orch.degraded_assignments == 1
    assert assignment.device_id == 1  # still pointing at the dead device
    orch.stop()
