"""Loss positions and demoted mode on wrap-spanning drains.

``last_drain_losses`` reports *positions* of holes in a drain's return
value.  The subtle case is a damaged slot coinciding with the ring-wrap
split: the publish path writes the burst as two contiguous runs and the
drain path reads it as two windows, so an off-by-one in either would
misplace the hole exactly at the seam.  The fragmentation layer stitches
multi-slot messages by these positions — a misplaced hole corrupts a
reassembled message instead of dropping it.
"""

from repro.channel.ring import RingChannel
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_ring(n_slots=8):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    ring = RingChannel.over_pod(pod, "h0", "h1", n_slots=n_slots)
    return sim, pod, ring


def _slot_addr(ring, index):
    return ring.alloc.range.base + ring.layout.slot_offset(index)


def _wrap_burst(sim, pod, ring, damage_slot):
    """Advance head to slot 5, burst 6 slots (5,6,7,0,1,2 — spanning the
    wrap), damage ``damage_slot`` behind the CRC's back, then drain."""
    burst = [f"wrap-{i}".encode() for i in range(6)]

    def proc(sim):
        for i in range(5):
            yield from ring.sender.send(bytes([i]))
        for _ in range(5):
            yield from ring.receiver.recv()
        yield from ring.sender.send_burst(burst)
        yield sim.timeout(1_000.0)           # let the NT stores commit
        pod.pool_write(_slot_addr(ring, damage_slot) + 7 + 1, b"\xff")
        return (yield from ring.receiver.drain())

    p = sim.spawn(proc(sim))
    sim.run(until=p)
    sim.run()
    return burst, p.value


def test_loss_at_first_slot_after_wrap():
    """Damaged slot 0 = burst payload 3, the first slot of the second
    publish run: the hole lands at position 3, not at the seam edges."""
    sim, pod, ring = make_ring(n_slots=8)
    burst, got = _wrap_burst(sim, pod, ring, damage_slot=0)
    assert got == burst[:3] + burst[4:]
    assert ring.receiver.last_drain_losses == [3]
    assert ring.receiver.crc_rejects == 1
    assert ring.receiver.lost_slots == 1


def test_loss_at_last_slot_before_wrap():
    """Damaged slot 7 = burst payload 2, the final slot of the first
    publish run right at the ring end."""
    sim, pod, ring = make_ring(n_slots=8)
    burst, got = _wrap_burst(sim, pod, ring, damage_slot=7)
    assert got == burst[:2] + burst[3:]
    assert ring.receiver.last_drain_losses == [2]
    assert ring.receiver.lost_slots == 1


def test_losses_reset_on_next_drain():
    sim, pod, ring = make_ring(n_slots=8)
    _burst, _got = _wrap_burst(sim, pod, ring, damage_slot=0)
    assert ring.receiver.last_drain_losses == [3]

    def clean_round(sim):
        yield from ring.sender.send_burst([b"a", b"b"])
        return (yield from ring.receiver.drain())

    p = sim.spawn(clean_round(sim))
    sim.run(until=p)
    sim.run()
    assert p.value == [b"a", b"b"]
    assert ring.receiver.last_drain_losses == []


# -- demoted (slot-at-a-time) mode -------------------------------------------


def test_demoted_ring_still_delivers_wrap_burst():
    """``degraded`` channels take the slot-at-a-time paths end to end —
    no multi-line publishes, no streaming window reads — and still
    deliver a wrap-spanning burst intact with correct loss positions."""
    sim, pod, ring = make_ring(n_slots=8)
    ring.sender.degraded = True
    ring.receiver.degraded = True
    burst, got = _wrap_burst(sim, pod, ring, damage_slot=0)
    assert got == burst[:3] + burst[4:]
    assert ring.receiver.last_drain_losses == [3]


def test_demoted_burst_costs_like_singles():
    """Demotion really does fall back to the legacy path: a K-slot
    burst on a degraded sender takes as long as K single sends."""
    k = 6
    sim_a, _pod_a, ring_a = make_ring(n_slots=16)
    sim_b, _pod_b, ring_b = make_ring(n_slots=16)
    ring_b.sender.degraded = True
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
    assert pb.value == pa.value


def _stalls_behind_a_slow_receiver(send, degraded):
    """Ring-full stalls noted while seven payloads go through a 2-slot
    ring whose receiver takes one slot every 20 us."""
    sim, _pod, ring = make_ring(n_slots=2)
    ring.sender.degraded = degraded
    payloads = [bytes([i]) for i in range(7)]

    def receiver():
        for _ in payloads:
            yield sim.timeout(20_000.0)
            yield from ring.receiver.try_recv()

    p = sim.spawn(send(ring.sender, payloads))
    sim.spawn(receiver())
    sim.run(until=p)
    return ring.sender.full_events


def _singles(sender, payloads):
    for payload in payloads:
        yield from sender.send(payload)


def _burst(sender, payloads):
    yield from sender.send_burst(payloads)


def test_demoted_burst_counts_ring_full_stalls_like_singles():
    """A burst notes one ring-full stall however many chunks wait; a
    demoted burst sends one slot per chunk and notes a stall per slot
    that waits, exactly as single sends do (brownout reads the ring's
    stall counters)."""
    singles = _stalls_behind_a_slow_receiver(_singles, degraded=False)
    assert singles == 5
    assert _stalls_behind_a_slow_receiver(_burst, degraded=True) == singles
    assert _stalls_behind_a_slow_receiver(_burst, degraded=False) == 1
