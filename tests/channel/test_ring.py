"""Unit + property tests for the shared-memory ring channel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.ring import (
    SLOT_PAYLOAD_BYTES,
    RingChannel,
    RingLayout,
    SlotCorruptionError,
)
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_ring(n_slots=8):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    ring = RingChannel.over_pod(pod, "h0", "h1", n_slots=n_slots)
    return sim, pod, ring


def test_layout_geometry():
    layout = RingLayout(8)
    assert layout.progress_offset == 0
    assert layout.slot_offset(0) == 64
    assert layout.slot_offset(7) == 512
    assert layout.region_bytes == 9 * 64


def test_single_message_roundtrip():
    sim, _pod, ring = make_ring()

    def sender(sim):
        yield from ring.sender.send(b"hello")

    def receiver(sim):
        payload = yield from ring.receiver.recv()
        return payload

    sim.spawn(sender(sim))
    p = sim.spawn(receiver(sim))
    sim.run(until=p)
    assert p.value == b"hello"
    sim.run()


def test_fifo_order_and_no_loss():
    sim, _pod, ring = make_ring(n_slots=4)
    messages = [f"msg-{i}".encode() for i in range(50)]
    got = []

    def sender(sim):
        for m in messages:
            yield from ring.sender.send(m)

    def receiver(sim):
        for _ in messages:
            got.append((yield from ring.receiver.recv()))

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got == messages


def test_sender_blocks_when_ring_full_then_resumes():
    sim, _pod, ring = make_ring(n_slots=2)
    sent_times = []

    def sender(sim):
        for i in range(4):
            yield from ring.sender.send(bytes([i]))
            sent_times.append(sim.now)

    def receiver(sim):
        yield sim.timeout(100_000.0)  # stall: ring fills at 2 messages
        out = []
        for _ in range(4):
            out.append((yield from ring.receiver.recv()))
        return out

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert r.value == [b"\x00", b"\x01", b"\x02", b"\x03"]
    # First two sends are immediate; the rest waited for the receiver.
    assert sent_times[1] < 10_000.0
    assert sent_times[2] > 100_000.0


def test_oversized_payload_rejected():
    _sim, _pod, ring = make_ring()
    with pytest.raises(ValueError):
        next(ring.sender.send(bytes(SLOT_PAYLOAD_BYTES + 1)))


def test_empty_payload_roundtrip():
    sim, _pod, ring = make_ring()

    def sender(sim):
        yield from ring.sender.send(b"")

    def receiver(sim):
        return (yield from ring.receiver.recv())

    sim.spawn(sender(sim))
    p = sim.spawn(receiver(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == b""


def test_try_recv_returns_none_when_empty():
    sim, _pod, ring = make_ring()

    def receiver(sim):
        return (yield from ring.receiver.try_recv())

    p = sim.spawn(receiver(sim))
    sim.run(until=p)
    sim.run()
    assert p.value is None


def test_slot_reuse_across_many_passes():
    # 300 messages through a 4-slot ring: > 250-seq period, > 75 passes.
    sim, _pod, ring = make_ring(n_slots=4)
    n = 300
    got = []

    def sender(sim):
        for i in range(n):
            yield from ring.sender.send(i.to_bytes(4, "little"))

    def receiver(sim):
        for _ in range(n):
            raw = yield from ring.receiver.recv()
            got.append(int.from_bytes(raw, "little"))

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got == list(range(n))


def test_ring_needs_two_slots():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    with pytest.raises(ValueError):
        RingChannel.over_pod(pod, "h0", "h1", n_slots=1)


def test_mismatched_regions_rejected():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    from repro.cxl.coherence import SharedRegion

    a = pod.allocate(1024, owners=["h0", "h1"])
    b = pod.allocate(1024, owners=["h0", "h1"])
    with pytest.raises(ValueError):
        RingChannel(
            SharedRegion(pod.host("h0"), a),
            SharedRegion(pod.host("h1"), b),
            n_slots=4,
        )


# -- memory RAS: per-slot CRC, poison, λ-redundant placement ---------------


def _slot_addr(ring, slot_number):
    index = slot_number % ring.layout.n_slots
    return ring.alloc.range.base + ring.layout.slot_offset(index)


def test_bit_flip_fails_crc_and_is_counted():
    sim, pod, ring = make_ring()

    def sender(sim):
        yield from ring.sender.send(b"payload-under-test")

    def receiver(sim):
        try:
            yield from ring.receiver.recv()
        except SlotCorruptionError as exc:
            return exc.reason

    s = sim.spawn(sender(sim))
    sim.run(until=s)
    sim.run()  # let the sender's NT store drain to the media
    # Corrupt one payload byte in pool memory before the receiver reads:
    # the slot's seq still matches, so only the CRC can catch it.
    pod.pool_write(_slot_addr(ring, 0) + 7 + 3, b"\xff")
    p = sim.spawn(receiver(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == "CRC mismatch"
    assert ring.receiver.crc_rejects == 1
    assert ring.receiver.lost_slots == 1


def test_poisoned_slot_detected_and_skipped():
    sim, pod, ring = make_ring()
    outcome = []

    def sender(sim):
        yield from ring.sender.send(b"first")
        pod.poison(_slot_addr(ring, 0))
        yield from ring.sender.send(b"second")

    def receiver(sim):
        for _ in range(2):
            try:
                outcome.append((yield from ring.receiver.recv()))
            except SlotCorruptionError as exc:
                outcome.append(exc.reason)

    s = sim.spawn(sender(sim))
    sim.run(until=s)
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    # The poisoned slot is a detected loss; the next message still flows.
    assert outcome == ["poisoned line", b"second"]
    assert ring.receiver.poison_hits == 1
    assert ring.receiver.lost_slots == 1


def test_sender_pass_scrubs_poisoned_slot():
    """The sender's next lap overwrites (and thereby scrubs) a poisoned
    slot, so one media error never wedges the ring permanently."""
    sim, pod, ring = make_ring(n_slots=2)
    n = 6
    got = []

    def sender(sim):
        for i in range(n):
            yield from ring.sender.send(bytes([i]))

    def receiver(sim):
        pod.poison(_slot_addr(ring, 0))
        for _ in range(n):
            try:
                got.append((yield from ring.receiver.recv()))
            except SlotCorruptionError:
                got.append(None)

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got[0] is None                    # the poisoned first slot
    assert got[1:] == [bytes([i]) for i in range(1, n)]
    assert pod.ras_counters()["poisoned_resident"] == 0  # scrubbed


def test_poisoned_progress_line_scrubbed_by_sender():
    sim, pod, ring = make_ring(n_slots=2)

    def proc():
        yield from ring.sender.send(b"a")
        yield from ring.sender.send(b"b")
        # Ring now full; poison the progress line the sender must poll.
        pod.poison(ring.alloc.range.base + ring.layout.progress_offset)
        drain = sim.spawn(drain_two())
        yield from ring.sender.send(b"c")
        yield drain

    def drain_two():
        yield sim.timeout(10_000.0)
        for _ in range(2):
            yield from ring.receiver.recv()

    p = sim.spawn(proc())
    sim.run(until=p)
    sim.run()
    assert ring.sender.poison_hits == 1
    assert pod.ras_counters()["poisoned_resident"] == 0


def test_over_pod_confines_rings_to_distinct_mhds():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 26))
    a = RingChannel.over_pod(pod, "h0", "h1", n_slots=4)
    b = RingChannel.over_pod(pod, "h1", "h0", n_slots=4)
    assert {a.mhd_index, b.mhd_index} == {0, 1}
    assert pod.allocation_mhds(a.alloc) == {a.mhd_index}


@settings(max_examples=20, deadline=None)
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=SLOT_PAYLOAD_BYTES),
        min_size=1, max_size=40,
    ),
    n_slots=st.sampled_from([2, 3, 4, 8]),
    consume_delay=st.floats(min_value=0.0, max_value=5000.0),
)
def test_property_no_loss_no_duplication_no_reorder(
        payloads, n_slots, consume_delay):
    """Arbitrary payloads, ring sizes, and receiver pacing: the receiver
    sees exactly the sent sequence."""
    sim, _pod, ring = make_ring(n_slots=n_slots)
    got = []

    def sender(sim):
        for p in payloads:
            yield from ring.sender.send(p)

    def receiver(sim):
        for _ in payloads:
            got.append((yield from ring.receiver.recv()))
            if consume_delay:
                yield sim.timeout(consume_delay)

    sim.spawn(sender(sim))
    r = sim.spawn(receiver(sim))
    sim.run(until=r)
    sim.run()
    assert got == payloads
