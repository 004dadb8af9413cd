"""Posted NT stores: one landing event per instant, no leaked entries.

``write_bulk(nt=True)`` commits every line of a payload in one resume
and lands the lines due at the same instant together, in commit order,
in one ``nt-drain`` event.  A store to a down link raises before it
enters the store buffer, so the writer never forwards a line to itself
that its device never received.
"""

import pytest

from repro.cxl.link import LinkDownError
from repro.cxl.params import DEFAULT_TIMINGS
from repro.cxl.pod import POOL_BASE, CxlPod, PodConfig
from repro.sim import Simulator
from repro.sim.profile import KernelProfiler

LINE = 64
STRIPE = 256          # interleave granularity: 4 lines per MHD


@pytest.fixture()
def pod():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2, mhd_capacity=1 << 26))
    assert pod.route(POOL_BASE)[0] == 0
    assert pod.route(POOL_BASE + STRIPE)[0] == 1
    return sim, pod


def _read_uncached(sim, mem, addr, size):
    def proc():
        return (yield from mem.read_bulk(addr, size, uncached=True))
    p = sim.spawn(proc())
    sim.run(until=p)
    return p.value


def _nt_drains(sim, gen):
    """Run ``gen`` to the end; the number of ``nt-drain`` events."""
    profiler = sim.attach_profiler(KernelProfiler())
    sim.spawn(gen)
    sim.run()
    sim.attach_profiler(None)
    return profiler.event_sources.get("nt-drain", [0])[0]


def test_nt_store_to_a_down_link_leaves_no_store_buffer_entry(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    link = h0.port.links[0]
    link.fail()
    outcome = []

    def writer():
        try:
            yield from h0.store_line_nt(POOL_BASE, b"A" * LINE)
        except LinkDownError:
            outcome.append("link-down")

    sim.spawn(writer())
    sim.run()
    assert outcome == ["link-down"]
    assert h0._store_buffer == {}
    link.restore()
    # The writer and every other host agree: the store never happened.
    assert _read_uncached(sim, h0, POOL_BASE, LINE) == bytes(LINE)
    assert _read_uncached(sim, h1, POOL_BASE, LINE) == bytes(LINE)


def test_bulk_nt_store_hitting_a_down_link_lands_the_lines_before_it(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    link = h0.port.links[1]          # lines 4..7 of the payload
    link.fail()
    payload = bytes(range(1, 9)) * LINE   # 8 lines, line i != 0
    outcome = []

    def writer():
        try:
            yield from h0.write_bulk(POOL_BASE, payload, nt=True)
        except LinkDownError:
            outcome.append(("link-down", sim.now))

    sim.spawn(writer())
    sim.run()
    # The fifth line raised; the four committed before it still landed.
    assert [kind for kind, _ in outcome] == ["link-down"]
    assert h0._store_buffer == {}
    assert h0.stores_dropped == 0
    assert pod.pool_read(POOL_BASE, STRIPE) == payload[:STRIPE]
    link.restore()
    for mem in (h0, h1):
        assert _read_uncached(sim, mem, POOL_BASE, 2 * STRIPE) == (
            payload[:STRIPE] + bytes(STRIPE))


def _watch(sim, pod, size, offsets, seen):
    """Snapshot the pool's first ``size`` bytes ``offsets`` ns from now."""
    now = sim.now
    for at in offsets:
        yield sim.timeout(now + at - sim.now)
        seen.append(pod.pool_read(POOL_BASE, size))


def test_bulk_nt_payload_lands_in_one_event_per_instant(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    payload = bytes(range(256)) * 16      # 4 KiB over both MHDs
    store = DEFAULT_TIMINGS.cxl_store_ns
    seen = []

    def writer():
        yield from h0.write_bulk(POOL_BASE, payload, nt=True)
        yield from _watch(sim, pod, len(payload),
                          (store - 0.5, store + 0.5), seen)

    assert _nt_drains(sim, writer()) == 1
    # Every line lands one store latency after the commit, together.
    assert seen == [bytes(len(payload)), payload]
    assert h0._store_buffer == {}


def test_a_slowed_link_lands_its_lines_in_a_second_event(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    h0.port.links[1].slow(10.0)
    payload = bytes(range(256)) * 16
    store = DEFAULT_TIMINGS.cxl_store_ns
    seen = []

    def writer():
        yield from h0.write_bulk(POOL_BASE, payload, nt=True)
        yield from _watch(sim, pod, 2 * STRIPE,
                          (store + 0.5, 10 * store - 0.5,
                           10 * store + 0.5), seen)

    assert _nt_drains(sim, writer()) == 2
    # MHD 0's stripes land at the store latency, MHD 1's ten times later.
    assert seen == [payload[:STRIPE] + bytes(STRIPE)] * 2 + [
        payload[:2 * STRIPE]]
    assert pod.pool_read(POOL_BASE, len(payload)) == payload
    assert h0._store_buffer == {}


@pytest.mark.parametrize("verb", ["flush_line", "invalidate_line"])
def test_writeback_over_a_down_link_keeps_the_line_dirty(pod, verb):
    """A clwb or clflush whose link is down raises before the cache
    changes: the line stays cached and dirty, and a retry once the link
    is back writes it to the device."""
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    link = h0.port.links[0]
    outcome = []

    def writeback():
        yield from h0.store_line(POOL_BASE, b"D" * LINE)
        link.fail()
        try:
            yield from getattr(h0, verb)(POOL_BASE)
        except LinkDownError:
            outcome.append("link-down")

    sim.spawn(writeback())
    sim.run()
    assert outcome == ["link-down"]
    assert h0.cache.is_dirty(POOL_BASE)
    assert h0._store_buffer == {}
    link.restore()

    def retry():
        yield from h0.flush_line(POOL_BASE)
        yield sim.timeout(1_000.0)
        return (yield from h0.load_line(POOL_BASE))

    p = sim.spawn(retry())
    sim.run()
    assert p.value == b"D" * LINE
    assert pod.pool_read(POOL_BASE, LINE) == b"D" * LINE
    assert _read_uncached(sim, h1, POOL_BASE, LINE) == b"D" * LINE
