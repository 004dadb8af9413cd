"""Pool-level self-healing: agent and orchestrator crash/restart cycles
with live assignments, driven through the public fault-injection verbs."""

from repro.core import PciePool
from repro.faults import FaultInjector
from repro.obs import runtime as _obs
from repro.sim import Simulator


def make_pool(seed, n_hosts=3, nics=("h0", "h1")):
    sim = Simulator(seed=seed)
    pool = PciePool(sim, n_hosts=n_hosts)
    for host in nics:
        pool.add_nic(host)
    pool.start()
    return sim, pool


def test_agent_crash_without_restart_triggers_host_failover():
    sim, pool = make_pool(seed=31)
    pool.orchestrator.heartbeat_timeout_ns = 25_000_000.0
    vnic = pool.open_nic("h2")
    first_device = vnic.device_id
    owner = pool.owner_of(first_device)
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(15_000_000.0)
        injector.crash_agent(owner)
        yield sim.timeout(120_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert vnic.device_id != first_device
    assert pool.orchestrator.failovers >= 1
    assert not pool.orchestrator.board.get(first_device).healthy
    pool.stop()
    sim.run()


def test_agent_restart_reregisters_devices_and_adoptions():
    sim, pool = make_pool(seed=32)
    vnic = pool.open_nic("h2")
    owner = pool.owner_of(vnic.device_id)
    borrower_agent = pool.agents["h2"]
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(15_000_000.0)
        injector.crash_agent(owner)
        injector.crash_agent("h2")  # borrower-side agent dies too
        yield sim.timeout(10_000_000.0)  # shorter than heartbeat timeout
        injector.restart_agent(owner)
        injector.restart_agent("h2")
        yield sim.timeout(30_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    # No failover should have happened: the agents came back before the
    # heartbeat timeout expired.
    assert pool.orchestrator.failovers == 0
    # The restarted borrower re-learned its adoption from the pool layer.
    assert vnic.assignment.virtual_id in borrower_agent.adopted_assignments
    # The restarted owner re-managed its devices and keeps reporting.
    assert pool.orchestrator.board.get(vnic.device_id).healthy
    pool.stop()
    sim.run()


def test_orchestrator_restart_preserves_assignment_table():
    sim, pool = make_pool(seed=33)
    vnics = [pool.open_nic("h2"), pool.open_nic("h2")]
    injector = FaultInjector(pool)
    outcome = {}

    def scenario():
        yield sim.timeout(30_000_000.0)
        outcome["before"] = pool.orchestrator.assignment_table()
        injector.crash_orchestrator()
        yield sim.timeout(20_000_000.0)
        yield from injector.restart_orchestrator()
        yield sim.timeout(50_000_000.0)
        outcome["after"] = pool.orchestrator.assignment_table()

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert outcome["before"] == outcome["after"]
    assert len(outcome["after"]) == 2
    assert pool.orchestrator.epoch == 1
    assert pool.orchestrator.degraded_assignments == 0
    # Agents acked the resync.
    assert all(agent.resyncs == 1 for agent in pool.agents.values())
    # The vnic datapaths never rebuilt: the mapping did not change.
    assert all(vnic.generation == 0 for vnic in vnics)
    pool.stop()
    sim.run()


def test_device_failure_while_orchestrator_down_is_recovered():
    """A device dies during the orchestrator outage; the agent's failure
    event is pre-epoch, but its periodic announce heals the table."""
    sim, pool = make_pool(seed=34)
    vnic = pool.open_nic("h2")
    victim = vnic.device_id
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(30_000_000.0)
        injector.crash_orchestrator()
        yield sim.timeout(5_000_000.0)
        injector.crash_device(victim)  # dies while control plane is down
        yield sim.timeout(15_000_000.0)
        yield from injector.restart_orchestrator()
        yield sim.timeout(200_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert vnic.device_id != victim
    assert pool.orchestrator.failovers >= 1
    assert pool.orchestrator.degraded_assignments == 0
    pool.stop()
    sim.run()


def test_control_plane_telemetry_export():
    sim, pool = make_pool(seed=35)
    pool.open_nic("h2")
    sim.run(until=sim.timeout(30_000_000.0))
    totals = pool.export_control_plane_telemetry()
    assert set(totals) == {
        "rpc.retries", "rpc.backoff_ns", "rpc.timeouts", "rpc.gave_up",
        "rpc.late_replies_dropped", "rpc.link_errors",
    }
    # Mirrored into the registry that `repro metrics` prints.
    for name, value in totals.items():
        assert _obs.METRICS.value(name) == value
    pool.stop()
    sim.run()
