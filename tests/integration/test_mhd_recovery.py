"""λ-redundant MHD failure domains: losing one pool memory device must
never lose assignments — channels re-home onto surviving devices, agents
rebind, and the control plane keeps its table intact."""

from repro.core import PciePool
from repro.faults import FaultInjector
from repro.sim import Simulator


def make_pool(seed, n_hosts=3, nics=("h0", "h1")):
    sim = Simulator(seed=seed)
    pool = PciePool(sim, n_hosts=n_hosts, n_mhds=2)
    for host in nics:
        pool.add_nic(host)
    pool.start()
    return sim, pool


def live_endpoints(pool):
    from repro.channel.rpc import RpcEndpoint
    out = []
    for wired in pool._device_servers.values():
        out.extend(x for x in wired if isinstance(x, RpcEndpoint))
    return out


def test_mhd_crash_rehomes_every_channel():
    sim, pool = make_pool(seed=41)
    vnic = pool.open_nic("h2")
    injector = FaultInjector(pool)
    outcome = {}

    def scenario():
        yield sim.timeout(30_000_000.0)
        outcome["table_before"] = pool.orchestrator.assignment_table()
        injector.crash_mhd(0)
        yield sim.timeout(150_000_000.0)
        outcome["table_after"] = pool.orchestrator.assignment_table()

    p = sim.spawn(scenario())
    sim.run(until=p)
    # Detection reached the orchestrator through the surviving MHD.
    assert pool.orchestrator.mhd_failures_seen == 1
    assert pool.export_ras_telemetry()["ras.mhds_down_now"] == 1.0
    # Every surviving channel now lives exclusively on healthy media.
    for ep in live_endpoints(pool):
        assert 0 not in ep.mhd_footprint()
    assert pool.channels_rebuilt > 0
    # Zero lost assignments: same table, nothing degraded, vnic usable.
    assert outcome["table_after"] == outcome["table_before"]
    assert pool.orchestrator.degraded_assignments == 0
    assert vnic.assignment.virtual_id in (
        pool.agents["h2"].adopted_assignments)
    pool.stop()
    sim.run()


def test_agents_keep_heartbeating_after_ctl_rebuild():
    sim, pool = make_pool(seed=42)
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(30_000_000.0)
        injector.crash_mhd(1)
        yield sim.timeout(100_000_000.0)

    before = {}

    def snapshot_after_recovery():
        # Wait until the rebuild happened, then snapshot heartbeats.
        while pool.channels_rebuilt == 0:
            yield sim.timeout(5_000_000.0)
        yield sim.timeout(10_000_000.0)
        for host_id in pool.pod.host_ids:
            before[host_id] = pool.orchestrator.board.last_heartbeat(
                host_id)

    p = sim.spawn(scenario())
    sim.spawn(snapshot_after_recovery())
    sim.run(until=p)
    # Heartbeats resumed on the rebuilt channels: no host fell silent,
    # so the orchestrator never declared a (spurious) host failover.
    for host_id in pool.pod.host_ids:
        last = pool.orchestrator.board.last_heartbeat(host_id)
        assert last is not None and last > before[host_id]
    assert pool.orchestrator.failovers == 0
    pool.stop()
    sim.run()


def test_mhd_repair_is_observed_and_reusable():
    sim, pool = make_pool(seed=43)
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(30_000_000.0)
        injector.crash_mhd(0)
        yield sim.timeout(80_000_000.0)
        injector.repair_mhd(0)
        yield sim.timeout(80_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert pool.orchestrator.mhd_repairs_seen == 1
    assert pool.export_ras_telemetry()["ras.mhds_down_now"] == 0.0
    # The repaired device rejoins the allocation rotation.
    domains = {pool.pod.mhd_of(
        pool.pod.allocate_confined(4096, owners=["h0"]).range.base)
        for _ in range(2)}
    assert domains == {0, 1}
    pool.stop()
    sim.run()


def test_ras_telemetry_export_covers_integrity_counters():
    sim, pool = make_pool(seed=44)
    injector = FaultInjector(pool)

    def scenario():
        yield sim.timeout(20_000_000.0)
        # Poison a ctl-ring line: the integrity layer must detect it.
        target = next(
            rng.base for _i, rng, label in pool.pod.ras_allocations()
            if label.startswith("rpc:ctl:"))
        injector.poison_memory(target + 64, n_lines=1)
        yield sim.timeout(80_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    totals = pool.export_ras_telemetry()
    for key in ("ring.poison_hits", "ring.crc_rejects", "ring.lost_slots",
                "rpc.slot_corruptions", "ras.poisons_injected",
                "ras.poison_reads", "ras.poisons_scrubbed",
                "ras.channels_rebuilt", "ras.mhds_down_now"):
        assert key in totals
    assert totals["ras.poisons_injected"] == 1.0
    # Every injected poison is accounted for: detected (read) or already
    # scrubbed by a later slot write — never silently absorbed.
    assert (totals["ras.poisons_scrubbed"]
            + totals["ras.poisoned_resident"]) == 1.0
    pool.stop()
    sim.run()
