"""Integration tests for the PciePool facade: allocation, the remote
datapath through the facade, and end-to-end failover."""

import pytest

from repro.core import PciePool
from repro.datapath.proxy import LocalDeviceHandle, RemoteDeviceHandle
from repro.sim import Simulator


@pytest.fixture()
def pool():
    sim = Simulator(seed=5)
    pool = PciePool(sim, n_hosts=4)
    yield sim, pool
    pool.stop()
    sim.run()


def test_local_host_gets_its_own_nic(pool):
    sim, pool = pool
    nic = pool.add_nic("h0")
    pool.add_nic("h1")
    pool.start()
    vnic = pool.open_nic("h0")
    assert vnic.device_id == nic.device_id
    assert not vnic.is_remote


def test_nicless_host_gets_remote_nic(pool):
    sim, pool = pool
    pool.add_nic("h0")
    pool.start()
    vnic = pool.open_nic("h3")
    assert vnic.is_remote
    assert isinstance(vnic.stack.handle, RemoteDeviceHandle)


def test_handle_for_local_vs_remote(pool):
    sim, pool = pool
    nic = pool.add_nic("h0")
    assert isinstance(pool.handle_for("h0", nic.device_id),
                      LocalDeviceHandle)
    assert isinstance(pool.handle_for("h2", nic.device_id),
                      RemoteDeviceHandle)


def test_channel_reused_per_host_pair(pool):
    sim, pool = pool
    nic_a = pool.add_nic("h0")
    ssd = pool.add_ssd("h0")
    h_a = pool.handle_for("h2", nic_a.device_id)
    h_b = pool.handle_for("h2", ssd.device_id)
    assert h_a.endpoint is h_b.endpoint  # one channel pair per host pair


def test_unknown_device_rejected(pool):
    sim, pool = pool
    with pytest.raises(KeyError):
        pool.device(99)
    with pytest.raises(KeyError):
        pool.owner_of(99)


def test_end_to_end_udp_through_facade(pool):
    sim, pool = pool
    pool.add_nic("h0")
    pool.add_nic("h1")
    pool.start()
    server_vnic = pool.open_nic("h1")
    client_vnic = pool.open_nic("h3")  # remote: borrows h0's NIC
    got = {}

    def server():
        yield from server_vnic.start()
        sock = server_vnic.stack.bind(80)
        payload, src_mac, src_port = yield from sock.recv()
        got["payload"] = payload

    def client():
        yield from client_vnic.start()
        sock = client_vnic.stack.bind(1234)
        yield from sock.sendto(b"facade-path", server_vnic.mac, 80)

    s = sim.spawn(server())
    sim.spawn(client())
    sim.run(until=s)
    assert got["payload"] == b"facade-path"


def test_failover_rebinds_virtual_nic(pool):
    sim, pool = pool
    nic_a = pool.add_nic("h0")
    nic_b = pool.add_nic("h1")
    pool.start()
    vnic = pool.open_nic("h2")
    first = vnic.device_id
    rebinds = []
    vnic.on_rebind.append(lambda v: rebinds.append(v.device_id))

    def scenario():
        yield from vnic.start()
        # Kill the assigned NIC; the agent detects it, the orchestrator
        # fails over, and the vnic rebuilds on the survivor.
        pool.device(first).fail()
        yield sim.timeout(60_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    survivor = nic_b.device_id if first == nic_a.device_id else nic_a.device_id
    assert vnic.device_id == survivor
    assert vnic.generation == 1
    assert rebinds == [survivor]
    assert pool.orchestrator.failovers == 1


def test_traffic_resumes_after_failover(pool):
    sim, pool = pool
    pool.add_nic("h0")
    pool.add_nic("h0")  # second NIC on h0: failover target
    pool.add_nic("h1")
    pool.start()
    peer = pool.open_nic("h1")
    vnic = pool.open_nic("h2")
    received = []

    def peer_main():
        yield from peer.start()
        sock = peer.stack.bind(7)
        while True:
            payload, _mac, _port = yield from sock.recv()
            received.append(payload)

    def client_main():
        yield from vnic.start()
        sock = vnic.stack.bind(9)
        yield from sock.sendto(b"before-failure", peer.mac, 7)
        yield sim.timeout(5_000_000.0)
        pool.device(vnic.device_id).fail()
        yield sim.timeout(60_000_000.0)  # detection + failover + restart
        sock2 = vnic.stack.bind(9)       # fresh stack after rebind
        yield from sock2.sendto(b"after-failover", peer.mac, 7)
        yield sim.timeout(5_000_000.0)

    sim.spawn(peer_main())
    p = sim.spawn(client_main())
    sim.run(until=p)
    assert received == [b"before-failure", b"after-failover"]
    assert vnic.generation == 1


def test_orchestrator_telemetry_flows_through_agents(pool):
    sim, pool = pool
    pool.add_nic("h0")
    pool.start()
    sim.run(until=sim.timeout(30_000_000.0))
    board = pool.orchestrator.board
    assert board.last_heartbeat("h0") is not None
    assert board.get(1).last_report_ns > 0
