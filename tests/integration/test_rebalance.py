"""Load-balancing integration: utilization-driven migration (§4.2).

"To prevent high load and high latency from PCIe device saturation,
pools can dynamically adjust the number of hosts using a PCIe device by
migrating workloads to less-utilized devices."
"""

from repro.core import PciePool
from repro.orchestrator import Orchestrator
from repro.sim import Simulator


def test_rebalance_moves_borrower_off_hot_device():
    sim = Simulator(seed=71)
    pool = PciePool(sim, n_hosts=3)
    pool.add_nic("h0")   # device 1: will be reported hot
    pool.add_nic("h1")   # device 2: cold
    pool.orchestrator.rebalance_spread = 0.3
    pool.start()
    # Freeze telemetry: the agents would overwrite the injected load
    # reports with the (idle) truth before the monitor acts on them.
    for agent in pool.agents.values():
        agent.stop()
    vnic = pool.open_nic("h2")
    assert vnic.device_id == 1
    rebinds = []
    vnic.on_rebind.append(lambda v: rebinds.append((sim.now,
                                                    v.device_id)))

    def scenario():
        # Telemetry shows a widening spread; the monitor loop (every
        # 10 ms) must act on it.
        pool.orchestrator.ingest_load_report(1, 0.85, queue_depth=20)
        pool.orchestrator.ingest_load_report(2, 0.05, queue_depth=0)
        yield sim.timeout(30_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert vnic.device_id == 2
    assert pool.orchestrator.migrations >= 1
    assert rebinds and rebinds[0][1] == 2
    pool.stop()
    sim.run()


def test_rebalance_stops_when_spread_closes():
    """Rebalancing must converge, not ping-pong borrowers forever."""
    sim = Simulator(seed=72)
    orchestrator = Orchestrator(sim, rebalance_spread=0.3)
    orchestrator.register_device(1, "h0", "nic")
    orchestrator.register_device(2, "h1", "nic")
    a = orchestrator.request_device("h2", "nic")
    orchestrator.ingest_load_report(1, 0.9, 10)
    orchestrator.ingest_load_report(2, 0.1, 0)
    assert orchestrator.rebalance_once("nic")
    # After the move the spread is attributed to the devices, and the
    # telemetry converges; no further moves happen.
    orchestrator.ingest_load_report(1, 0.4, 0)
    orchestrator.ingest_load_report(2, 0.5, 2)
    assert not orchestrator.rebalance_once("nic")
    assert orchestrator.migrations == 1
    assert a.generation == 1


def test_real_traffic_drives_utilization_reports():
    """Agents report genuine NIC utilization: under sustained traffic
    the orchestrator's telemetry shows the device loaded."""
    sim = Simulator(seed=73)
    pool = PciePool(sim, n_hosts=2)
    pool.add_nic("h0")
    pool.add_nic("h1")
    pool.start()
    server = pool.open_nic("h1")
    client = pool.open_nic("h0")

    def server_main():
        yield from server.start()
        sock = server.stack.bind(7)
        while True:
            yield from sock.recv()

    def client_main():
        yield from client.start()
        sock = client.stack.bind(9)
        device = pool.device(client.device_id)
        device.reset_utilization_window()
        for _ in range(150):
            yield from sock.sendto(bytes(8192), server.mac, 7)
        # Let a couple of agent reporting intervals elapse.
        yield sim.timeout(25_000_000.0)

    sim.spawn(server_main())
    p = sim.spawn(client_main())
    sim.run(until=p)
    telemetry = pool.orchestrator.board.get(client.device_id)
    assert telemetry.utilization > 0.0
    assert telemetry.last_report_ns > 0.0
    pool.stop()
    sim.run()
