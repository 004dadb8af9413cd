"""Reliable transport tests: ordering, retransmission, windows."""

from repro.datapath.transport import Connection
from repro.datapath.udpbench import _build_endpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.cxl.link import LinkSpec
from repro.datapath.placement import BufferPlacement
from repro.pcie.fabric import EthernetSwitch
from repro.sim import Interrupt, Simulator

MAC_A, MAC_B = 0xA1, 0xB1


def make_world(seed=0):
    sim = Simulator(seed=seed)
    pod = CxlPod(sim, PodConfig(
        n_hosts=2, n_mhds=2, mhd_capacity=1 << 27,
        link_spec=LinkSpec(lanes=8), local_dram_bytes=64 << 20,
    ))
    switch = EthernetSwitch(sim)
    nic_a, stack_a = _build_endpoint(
        sim, pod, "h0", MAC_A, switch, BufferPlacement.LOCAL, 64
    )
    nic_b, stack_b = _build_endpoint(
        sim, pod, "h1", MAC_B, switch, BufferPlacement.LOCAL, 64
    )
    return sim, (nic_a, nic_b), (stack_a, stack_b), switch


def connect_pair(sim, stack_a, stack_b, port_a=100, port_b=200):
    sock_a = stack_a.bind(port_a)
    sock_b = stack_b.bind(port_b)
    conn_a = Connection(sim, sock_a, MAC_B, port_b, name="a")
    conn_b = Connection(sim, sock_b, MAC_A, port_a, name="b")
    return conn_a, conn_b


def test_in_order_delivery():
    sim, nics, (stack_a, stack_b), _switch = make_world()
    result = {}

    def main():
        yield from stack_a.start()
        yield from stack_b.start()
        conn_a, conn_b = connect_pair(sim, stack_a, stack_b)

        def sender():
            for i in range(10):
                yield from conn_a.send(f"seg-{i}".encode())

        def receiver():
            got = []
            for _ in range(10):
                got.append((yield from conn_b.recv()))
            result["got"] = got

        sim.spawn(sender())
        r = sim.spawn(receiver())
        yield r
        conn_a.close()
        conn_b.close()

    p = sim.spawn(main())
    sim.run(until=p)
    assert result["got"] == [f"seg-{i}".encode() for i in range(10)]
    for stack in (stack_a, stack_b):
        stack.stop()
    for nic in nics:
        nic.stop()
    sim.run()


def test_retransmission_recovers_from_frame_loss():
    sim, nics, (stack_a, stack_b), switch = make_world(seed=2)
    result = {}
    # Drop the 2nd forwarded frame (a data segment) exactly once.
    original_forward = switch.forward
    dropped = {"count": 0}

    def vanish():
        return
        yield  # pragma: no cover - makes this a generator

    def lossy_forward(raw):
        if switch.frames_forwarded == 2 and dropped["count"] == 0:
            dropped["count"] += 1
            switch.frames_dropped += 1
            return vanish()  # frame disappears on the wire
        return original_forward(raw)

    switch.forward = lossy_forward

    def main():
        yield from stack_a.start()
        yield from stack_b.start()
        conn_a, conn_b = connect_pair(sim, stack_a, stack_b)

        def sender():
            for i in range(5):
                yield from conn_a.send(f"x{i}".encode())

        def receiver():
            got = []
            for _ in range(5):
                got.append((yield from conn_b.recv()))
            result["got"] = got

        sim.spawn(sender())
        r = sim.spawn(receiver())
        yield r
        result["rtx"] = conn_a.retransmissions
        conn_a.close()
        conn_b.close()

    p = sim.spawn(main())
    sim.run(until=p)
    assert result["got"] == [b"x0", b"x1", b"x2", b"x3", b"x4"]
    assert dropped["count"] == 1
    assert result["rtx"] >= 1
    for stack in (stack_a, stack_b):
        stack.stop()
    for nic in nics:
        nic.stop()
    sim.run()


def test_window_blocks_when_peer_unreachable():
    """With the peer's NIC dead no acks come back, so the sender stalls
    after filling its window — the backpressure that keeps an in-pod
    migration's unacked set bounded."""
    sim, (nic_a, nic_b), (stack_a, stack_b), _switch = make_world()
    result = {}

    def main():
        yield from stack_a.start()
        yield from stack_b.start()
        sock_a = stack_a.bind(100)
        stack_b.bind(200)
        # Use a huge RTO so retransmissions don't muddy the count.
        conn_a = Connection(sim, sock_a, MAC_B, 200, window=4,
                            rto_ns=1e9, name="a")
        nic_b.fail()  # peer unreachable: no acks will ever return
        send_times = []

        def sender():
            try:
                for i in range(8):
                    yield from conn_a.send(bytes([i]))
                    send_times.append(sim.now)
            except Interrupt:
                return

        sender_proc = sim.spawn(sender())
        yield sim.timeout(5_000_000.0)
        result["send_times"] = list(send_times)
        result["sender_alive"] = sender_proc.is_alive
        result["inflight"] = conn_a.inflight
        sender_proc.interrupt(cause="test over")
        conn_a.close()

    p = sim.spawn(main())
    sim.run(until=p)
    assert len(result["send_times"]) == 4       # window-limited
    assert result["sender_alive"]               # 5th send still blocked
    assert result["inflight"] == 4
    for stack in (stack_a, stack_b):
        stack.stop()
    nic_a.stop()
    nic_b.stop()
    sim.run()


def test_duplicate_segments_not_delivered_twice():
    """Retransmissions of already-received segments are suppressed by
    the cumulative-ack receive logic."""
    sim, nics, (stack_a, stack_b), _switch = make_world()
    result = {}

    def main():
        yield from stack_a.start()
        yield from stack_b.start()
        # RTO far below the ~13 us segment-to-ack time forces spurious
        # retransmissions.
        sock_a = stack_a.bind(100)
        sock_b = stack_b.bind(200)
        conn_a = Connection(sim, sock_a, MAC_B, 200,
                            rto_ns=4_000.0, name="a")
        conn_b = Connection(sim, sock_b, MAC_A, 100, name="b")

        def sender():
            for i in range(4):
                yield from conn_a.send(bytes([i]))
                yield sim.timeout(100_000.0)  # leave room for dup rtx

        def receiver():
            got = []
            for _ in range(4):
                got.append((yield from conn_b.recv()))
            # Wait: any duplicate deliveries would land in the store.
            yield sim.timeout(500_000.0)
            result["got"] = got
            result["extra"] = len(conn_b._delivery)

        sim.spawn(sender())
        r = sim.spawn(receiver())
        yield r
        result["rtx"] = conn_a.retransmissions
        conn_a.close()
        conn_b.close()

    p = sim.spawn(main())
    sim.run(until=p)
    assert result["got"] == [b"\x00", b"\x01", b"\x02", b"\x03"]
    assert result["extra"] == 0
    assert result["rtx"] >= 1  # duplicates really were sent
    for stack in (stack_a, stack_b):
        stack.stop()
    for nic in nics:
        nic.stop()
    sim.run()


def test_send_after_close_rejected():
    sim, nics, (stack_a, stack_b), _switch = make_world()

    def main():
        yield from stack_a.start()
        sock_a = stack_a.bind(100)
        conn = Connection(sim, sock_a, MAC_B, 200, name="a")
        conn.close()
        try:
            yield from conn.send(b"late")
        except RuntimeError:
            return "rejected"

    p = sim.spawn(main())
    sim.run(until=p)
    assert p.value == "rejected"
    for stack in (stack_a, stack_b):
        stack.stop()
    for nic in nics:
        nic.stop()
    sim.run()
