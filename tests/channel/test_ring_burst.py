"""Burst-path tests for the ring channel: ``send_burst`` + ``drain``.

The burst datapath batches the per-slot costs (one flow-control check
per chunk, multi-line NT publishes, one progress write per drained
batch) but must not change the wire format or weaken the per-slot
CRC/poison containment the RAS layer relies on.
"""

import pytest

from repro.channel.ring import (
    CACHELINE_BYTES,
    SLOT_PAYLOAD_BYTES,
    RingChannel,
    RingLayout,
)
from repro.cxl.link import LinkDownError
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_ring(n_slots=8):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    ring = RingChannel.over_pod(pod, "h0", "h1", n_slots=n_slots)
    return sim, pod, ring


def _slot_addr(ring, index):
    return ring.alloc.range.base + ring.layout.slot_offset(index)


def test_burst_roundtrip_fifo():
    sim, _pod, ring = make_ring(n_slots=8)
    messages = [f"burst-{i}".encode() for i in range(20)]
    got = []

    def sender(sim):
        sent = yield from ring.sender.send_burst(messages)
        assert sent == len(messages)

    def receiver(sim):
        while len(got) < len(messages):
            got.extend((yield from ring.receiver.drain()))
            yield sim.timeout(100.0)

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got == messages


def test_wrap_spanning_burst_splits_at_ring_end():
    """A burst crossing the ring end is published as two contiguous
    runs — and the payloads still arrive intact and in order."""
    sim, _pod, ring = make_ring(n_slots=8)
    got = []

    def proc(sim):
        # Advance the ring so the head sits at slot 5: the next 6-slot
        # burst occupies slots 5,6,7,0,1,2 — spanning the wrap.
        for i in range(5):
            yield from ring.sender.send(bytes([i]))
        for _ in range(5):
            got.append((yield from ring.receiver.recv()))
        burst = [f"wrap-{i}".encode() for i in range(6)]
        yield from ring.sender.send_burst(burst)
        while len(got) < 11:
            got.extend((yield from ring.receiver.drain()))
            yield sim.timeout(100.0)

    p = sim.spawn(proc(sim))
    sim.run(until=p)
    sim.run()
    assert ring.sender._head == 11          # 5 singles + 6-slot burst
    assert got[5:] == [f"wrap-{i}".encode() for i in range(6)]
    assert ring.receiver.lost_slots == 0


def test_drain_skips_crc_damaged_slot_and_keeps_batch():
    """A CRC-damaged slot mid-batch is counted and skipped; every other
    slot of the batch is still delivered.  Drain never raises."""
    sim, pod, ring = make_ring(n_slots=8)
    messages = [f"m{i}".encode() for i in range(6)]

    def damage_then_drain(sim):
        yield from ring.sender.send_burst(messages)
        yield sim.timeout(1_000.0)       # let the NT stores commit
        # Flip a payload byte of slot 2 behind the CRC's back.
        pod.pool_write(_slot_addr(ring, 2) + 7 + 1, b"\xff")
        return (yield from ring.receiver.drain())

    p = sim.spawn(damage_then_drain(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == [b"m0", b"m1", b"m3", b"m4", b"m5"]
    assert ring.receiver.crc_rejects == 1
    assert ring.receiver.lost_slots == 1


def test_drain_contains_poisoned_slot_mid_batch():
    """A poisoned line inside a drain window demotes that window to
    slot-at-a-time consumption: only the damaged slot is lost."""
    sim, pod, ring = make_ring(n_slots=8)
    messages = [f"p{i}".encode() for i in range(6)]

    def poison_then_drain(sim):
        yield from ring.sender.send_burst(messages)
        yield sim.timeout(1_000.0)       # let the NT stores commit
        pod.poison(_slot_addr(ring, 3))
        return (yield from ring.receiver.drain())

    p = sim.spawn(poison_then_drain(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == [b"p0", b"p1", b"p2", b"p4", b"p5"]
    assert ring.receiver.poison_hits == 1
    assert ring.receiver.lost_slots == 1


def test_drain_keeps_slots_consumed_before_a_link_failure(monkeypatch):
    """The receiver's link dies between a batch's probe reads and its
    window read: drain returns the slots it already consumed, the next
    drain meets the dead link, and once the link is back the rest of
    the batch follows in order."""
    sim, pod, ring = make_ring(n_slots=8)
    messages = [f"l{i}".encode() for i in range(6)]
    rx = ring.receiver
    link = pod.host("h1").port.links[0]
    window_read = rx.region.consume_uncached_bulk

    def link_dies_first(*args):
        if link.up and not link_dies_first.done:
            link_dies_first.done = True
            link.fail()
        return (yield from window_read(*args))

    link_dies_first.done = False
    monkeypatch.setattr(rx.region, "consume_uncached_bulk", link_dies_first)

    def proc(sim):
        yield from ring.sender.send_burst(messages)
        yield sim.timeout(1_000.0)       # let the NT stores commit
        first = yield from rx.drain()
        with pytest.raises(LinkDownError):
            yield from rx.drain()
        link.restore()
        rest = yield from rx.drain()
        return first, rest

    p = sim.spawn(proc(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == (messages[:2], messages[2:])
    assert rx.lost_slots == 0


def test_burst_of_one_is_bit_identical_and_time_identical():
    """``send_burst([p])`` must degenerate to the legacy single-slot
    path exactly: same wire bytes, same elapsed time."""
    sim_a, pod_a, ring_a = make_ring(n_slots=8)
    sim_b, pod_b, ring_b = make_ring(n_slots=8)
    payload = b"single-message-payload"

    def legacy(sim, ring):
        t0 = sim.now
        yield from ring.sender.send(payload)
        return sim.now - t0

    def burst(sim, ring):
        t0 = sim.now
        yield from ring.sender.send_burst([payload])
        return sim.now - t0

    pa = sim_a.spawn(legacy(sim_a, ring_a))
    sim_a.run(until=pa)
    pb = sim_b.spawn(burst(sim_b, ring_b))
    sim_b.run(until=pb)

    wire_a = pod_a.pool_read(_slot_addr(ring_a, 0), CACHELINE_BYTES)
    wire_b = pod_b.pool_read(_slot_addr(ring_b, 0), CACHELINE_BYTES)
    assert wire_a == wire_b
    assert pa.value == pb.value


def test_multi_slot_burst_cheaper_than_singles():
    """The batched publish amortises the per-slot issue+commit cost:
    a K-slot burst takes well under K times a single send."""
    k = 8
    sim_a, _pod_a, ring_a = make_ring(n_slots=16)
    sim_b, _pod_b, ring_b = make_ring(n_slots=16)
    payloads = [bytes([i]) * 16 for i in range(k)]

    def singles(sim, ring):
        t0 = sim.now
        for p in payloads:
            yield from ring.sender.send(p)
        return sim.now - t0

    def burst(sim, ring):
        t0 = sim.now
        yield from ring.sender.send_burst(payloads)
        return sim.now - t0

    pa = sim_a.spawn(singles(sim_a, ring_a))
    sim_a.run(until=pa)
    pb = sim_b.spawn(burst(sim_b, ring_b))
    sim_b.run(until=pb)
    assert pb.value < pa.value / 2.0


def test_full_ring_burst_chunks_and_counts_full_events():
    """A burst larger than the ring proceeds in chunks, blocking on
    flow control between them, and records the stall."""
    sim, _pod, ring = make_ring(n_slots=4)
    messages = [bytes([i]) for i in range(10)]
    got = []

    def sender(sim):
        yield from ring.sender.send_burst(messages)

    def receiver(sim):
        yield sim.timeout(50_000.0)      # let the ring fill first
        while len(got) < len(messages):
            got.extend((yield from ring.receiver.drain()))
            yield sim.timeout(500.0)

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got == messages
    assert ring.sender.full_events >= 1


def test_drain_empty_ring_returns_empty():
    sim, _pod, ring = make_ring()

    def proc(sim):
        return (yield from ring.receiver.drain())

    p = sim.spawn(proc(sim))
    sim.run(until=p)
    assert p.value == []


def test_oversized_payload_in_burst_rejected_before_any_send():
    sim, _pod, ring = make_ring()
    bad = [b"ok", b"x" * (SLOT_PAYLOAD_BYTES + 1)]

    def proc(sim):
        try:
            yield from ring.sender.send_burst(bad)
        except ValueError:
            return "rejected"

    p = sim.spawn(proc(sim))
    sim.run(until=p)
    assert p.value == "rejected"
    assert ring.sender.sent == 0


def test_layout_slot_offsets_unchanged():
    # The burst path reuses the legacy geometry: anything else would
    # break cross-version interop over the pool.
    layout = RingLayout(8)
    assert layout.progress_offset == 0
    assert layout.slot_offset(0) == CACHELINE_BYTES
