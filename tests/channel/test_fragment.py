"""Fragmentation layer tests: arbitrary payloads over 61 B slots."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.fragment import (
    CHUNK_BYTES,
    FragmentReceiver,
    FragmentSender,
    ReassemblyError,
)
from repro.channel.ring import RingChannel, SlotCorruptionError
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pair(n_slots=8):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    ring = RingChannel.over_pod(pod, "h0", "h1", n_slots=n_slots)
    return sim, FragmentSender(ring.sender), FragmentReceiver(ring.receiver)


def roundtrip(payloads, n_slots=8):
    sim, sender, receiver = make_pair(n_slots)
    got = []

    def producer():
        for p in payloads:
            yield from sender.send(p)

    def consumer():
        for _ in payloads:
            got.append((yield from receiver.recv()))

    sim.spawn(producer())
    c = sim.spawn(consumer())
    sim.run(until=c)
    sim.run()
    return got


def test_single_chunk_message():
    assert roundtrip([b"small"]) == [b"small"]


def test_empty_message():
    assert roundtrip([b""]) == [b""]


def test_exact_chunk_boundary():
    payload = bytes(CHUNK_BYTES)
    assert roundtrip([payload]) == [payload]


def test_multi_chunk_message():
    payload = bytes(range(256)) * 8  # 2048 B -> 37 fragments
    assert roundtrip([payload]) == [payload]


def test_many_messages_in_order():
    payloads = [f"msg-{i}".encode() * (i + 1) for i in range(20)]
    assert roundtrip(payloads, n_slots=4) == payloads


def test_large_message_through_tiny_ring():
    payload = bytes(i % 251 for i in range(5000))
    assert roundtrip([payload], n_slots=2) == [payload]


def test_counters():
    sim, sender, receiver = make_pair()

    def producer():
        yield from sender.send(b"x" * 200)

    def consumer():
        yield from receiver.recv()

    sim.spawn(producer())
    c = sim.spawn(consumer())
    sim.run(until=c)
    sim.run()
    assert sender.messages_sent == 1
    assert receiver.messages_received == 1


def test_continuation_without_first_rejected():
    sim, sender, receiver = make_pair()

    def rogue():
        # A continuation fragment (flags=0) with no preceding first.
        import struct
        yield from sender.ring.send(struct.pack("<BI", 0, 1) + b"x")

    def consumer():
        try:
            yield from receiver.recv()
        except ReassemblyError as exc:
            return str(exc)

    sim.spawn(rogue())
    c = sim.spawn(consumer())
    sim.run(until=c)
    sim.run()
    assert "before a first fragment" in c.value


def test_lost_mid_train_fragment_surfaces_and_never_stitches():
    """Regression: a slot lost inside a drained batch must surface at
    the hole — SlotCorruptionError for the broken train, then
    ReassemblyError for its orphaned continuation — never a silently
    reassembled message with a missing chunk.  Trains after the hole
    still deliver intact."""
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    ring = RingChannel.over_pod(pod, "h0", "h1", n_slots=16)
    sender = FragmentSender(ring.sender)
    receiver = FragmentReceiver(ring.receiver)
    first = bytes(range(150))           # 3 fragments: slots 0, 1, 2
    second = b"intact-after-the-hole"   # 1 fragment: slot 3
    outcomes = []

    def proc():
        yield from sender.send(first)
        yield from sender.send(second)
        yield sim.timeout(1_000.0)      # let the NT stores commit
        # Damage the middle fragment of the first train (slot 1): the
        # drained batch now has a hole with no FIRST/LAST flags around
        # it to betray the loss.
        pod.pool_write(
            ring.alloc.range.base + ring.layout.slot_offset(1) + 8,
            b"\xff",
        )
        for _ in range(3):
            try:
                outcomes.append((yield from receiver.recv()))
            except SlotCorruptionError:
                outcomes.append("corrupt")
            except ReassemblyError:
                outcomes.append("orphan")

    p = sim.spawn(proc())
    sim.run(until=p)
    sim.run()
    assert outcomes == ["corrupt", "orphan", second]
    assert ring.receiver.lost_slots == 1


@settings(max_examples=15, deadline=None)
@given(payloads=st.lists(st.binary(min_size=0, max_size=400),
                         min_size=1, max_size=6))
def test_property_arbitrary_payloads_roundtrip(payloads):
    assert roundtrip(payloads, n_slots=4) == payloads
