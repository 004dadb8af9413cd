"""Pending-repair queue: stranded assignments are retried, not leaked.

Historically an assignment whose failover found no replacement stayed
broken forever even after its device was repaired; these tests pin the
fixed behaviour.
"""

from repro.orchestrator import Orchestrator
from repro.sim import Simulator


def build_single_device():
    sim = Simulator(seed=11)
    orch = Orchestrator(sim)
    orch.register_device(1, "h0", "nic")
    assignment = orch.request_device("h1", "nic")
    return sim, orch, assignment


def test_failed_failover_parks_on_pending_repair():
    _sim, orch, assignment = build_single_device()
    orch.ingest_device_failure(1)
    assert orch.failovers == 0
    assert orch.degraded_assignments == 1
    assert assignment.device_id == 1


def test_repair_rebinds_in_place():
    _sim, orch, assignment = build_single_device()
    notifications = []
    orch.on_migration(lambda a, old: notifications.append((a.virtual_id,
                                                           old)))
    orch.ingest_device_failure(1)
    orch.ingest_device_repaired(1)
    assert orch.degraded_assignments == 0
    assert orch.repair_rebinds == 1
    assert assignment.device_id == 1
    assert assignment.generation == 1  # borrower must rebuild its stack
    assert notifications == [(assignment.virtual_id, 1)]


def test_new_registration_unparks_assignment():
    _sim, orch, assignment = build_single_device()
    orch.ingest_device_failure(1)
    orch.register_device(2, "h2", "nic")
    assert orch.degraded_assignments == 0
    assert orch.failovers == 1
    assert assignment.device_id == 2
    assert assignment.generation == 1


def test_healthy_announce_unparks_assignment():
    _sim, orch, assignment = build_single_device()
    orch.ingest_device_failure(1)
    # The owning agent notices the repair and announces it healthy.
    orch.ingest_device_announce("h0", 1, "nic", healthy=True)
    assert orch.degraded_assignments == 0
    assert assignment.generation == 1


def test_release_clears_pending_entry():
    _sim, orch, assignment = build_single_device()
    orch.ingest_device_failure(1)
    orch.release(assignment.virtual_id)
    assert orch.degraded_assignments == 0
    orch.ingest_device_repaired(1)
    assert orch.repair_rebinds == 0  # nothing left to heal


def test_repair_prefers_alternative_over_original_when_both_exist():
    sim = Simulator(seed=12)
    orch = Orchestrator(sim)
    orch.register_device(1, "h0", "nic")
    assignment = orch.request_device("h1", "nic")
    orch.ingest_device_failure(1)
    assert orch.degraded_assignments == 1
    # Capacity arrives while device 1 is still broken.
    orch.register_device(2, "h2", "nic")
    assert assignment.device_id == 2
    # A later repair of device 1 must not yank the assignment back.
    orch.ingest_device_repaired(1)
    assert assignment.device_id == 2
    assert orch.degraded_assignments == 0


def test_monitor_tick_sweeps_pending_queue():
    sim = Simulator(seed=13)
    orch = Orchestrator(sim)
    orch.register_device(1, "h0", "nic")
    assignment = orch.request_device("h1", "nic")
    orch.ingest_device_failure(1)
    # Heal the board out-of-band (as if a repair notification raced an
    # outage and was lost): only the periodic sweep can notice.
    orch.board.mark_healthy(1)
    orch.start(check_interval_ns=5_000_000.0)
    sim.run(until=sim.timeout(12_000_000.0))
    assert orch.degraded_assignments == 0
    assert orch.repair_rebinds == 1
    assert assignment.generation == 1
    orch.stop()
    sim.run()
