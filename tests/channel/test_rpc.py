"""Unit tests for the RPC layer over ring pairs."""

from repro.channel.messages import (
    Completion,
    Doorbell,
    MmioRead,
    MmioReadReply,
    MmioWrite,
)
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pair():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    a, b = RpcEndpoint.pair(pod, "h0", "h1")
    return sim, a, b


def test_call_reply_roundtrip():
    sim, client, server = make_pair()
    bar = {0x1000: 0xabcd}

    def handle_read(msg):
        yield from server.send(
            MmioReadReply(request_id=msg.request_id, value=bar[msg.addr])
        )

    server.on(MmioRead, handle_read)

    def caller(sim):
        reply = yield from client.call(
            MmioRead(request_id=client.next_request_id(),
                     device_id=1, addr=0x1000)
        )
        return reply.value

    p = sim.spawn(caller(sim))
    sim.run(until=p)
    assert p.value == 0xabcd
    client.close()
    server.close()
    sim.run()


def test_concurrent_calls_matched_by_request_id():
    sim, client, server = make_pair()

    def handle_read(msg):
        # Reply out of order: delay inversely to the address.
        def responder():
            yield sim.timeout(10_000.0 - msg.addr)
            yield from server.send(
                MmioReadReply(request_id=msg.request_id, value=msg.addr * 2)
            )
        return responder()

    server.on(MmioRead, handle_read)
    results = {}

    def caller(sim, addr):
        reply = yield from client.call(
            MmioRead(request_id=client.next_request_id(),
                     device_id=1, addr=addr)
        )
        results[addr] = reply.value

    procs = [sim.spawn(caller(sim, addr)) for addr in (1000, 2000, 3000)]
    for p in procs:
        sim.run(until=p)
    assert results == {1000: 2000, 2000: 4000, 3000: 6000}
    client.close()
    server.close()
    sim.run()


def test_call_timeout_raises():
    sim, client, server = make_pair()
    # Server registers no handler: no call there waits for the requests,
    # so its dispatcher drops them and they are never answered.

    def caller(sim):
        try:
            yield from client.call(
                MmioRead(request_id=client.next_request_id(),
                         device_id=1, addr=0),
                timeout_ns=50_000.0,
            )
        except RpcError as exc:
            return str(exc)

    p = sim.spawn(caller(sim))
    sim.run(until=p)
    assert "timed out" in p.value
    client.close()
    server.close()
    sim.run()


def test_fire_and_forget_send_handled():
    sim, client, server = make_pair()
    seen = []
    server.on(Doorbell, lambda msg: seen.append(msg.index))

    def caller(sim):
        yield from client.send(
            Doorbell(request_id=0, device_id=1, queue_id=0, index=42)
        )
        yield sim.timeout(10_000.0)

    p = sim.spawn(caller(sim))
    sim.run(until=p)
    assert seen == [42]
    client.close()
    server.close()
    sim.run()


def test_bidirectional_traffic():
    sim, a, b = make_pair()
    a_seen, b_seen = [], []
    a.on(Completion, lambda m: a_seen.append(m.status))
    b.on(Completion, lambda m: b_seen.append(m.status))

    def from_a(sim):
        yield from a.send(Completion(request_id=1, status=100))

    def from_b(sim):
        yield from b.send(Completion(request_id=2, status=200))

    sim.spawn(from_a(sim))
    sim.spawn(from_b(sim))
    sim.run(until=sim.timeout(100_000.0))
    assert a_seen == [200]
    assert b_seen == [100]
    a.close()
    b.close()
    sim.run()


def test_request_ids_monotonic():
    _sim, client, _server = make_pair()
    ids = [client.next_request_id() for _ in range(5)]
    assert ids == [1, 2, 3, 4, 5]


def test_mmio_write_then_completion_flow():
    """The §4.1 pattern: remote host forwards an MMIO write to the owner,
    owner applies it to the (simulated) device and acknowledges."""
    sim, remote, owner = make_pair()
    device_regs = {}

    def handle_write(msg):
        device_regs[msg.addr] = msg.value
        yield from owner.send(
            Completion(request_id=msg.request_id, status=0)
        )

    owner.on(MmioWrite, handle_write)

    def caller(sim):
        reply = yield from remote.call(
            MmioWrite(request_id=remote.next_request_id(),
                      device_id=1, addr=0x18, value=7)
        )
        return reply.status

    p = sim.spawn(caller(sim))
    sim.run(until=p)
    assert p.value == 0
    assert device_regs == {0x18: 7}
    remote.close()
    owner.close()
    sim.run()
