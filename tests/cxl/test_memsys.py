"""Unit tests for the host memory system: timing, caching, DMA, staleness.

The central test here is the *staleness hazard*: without software
coherence, a host that cached a pool line keeps seeing the old value after
another host rewrites it — the exact problem §4.1 says the datapath must
handle in software.
"""

import pytest

from repro.cxl.params import DEFAULT_TIMINGS
from repro.cxl.pod import POOL_BASE, CxlPod, PodConfig
from repro.sim import Simulator

LINE_A = b"A" * 64
LINE_B = b"B" * 64


@pytest.fixture()
def pod():
    sim = Simulator()
    return sim, CxlPod(sim, PodConfig(
        n_hosts=2, n_mhds=2, mhd_capacity=1 << 26,
    ))


def run(sim, gen):
    proc = sim.spawn(gen)
    sim.run(until=proc)
    sim.run()  # drain delayed write-visibility processes
    return proc.value


def test_local_load_faster_than_pool_load(pod):
    sim, pod = pod

    def local(mem):
        t0 = sim.now
        yield from mem.load_line(0)
        return sim.now - t0

    def pooled(mem):
        t0 = sim.now
        yield from mem.load_line(POOL_BASE)
        return sim.now - t0

    mem = pod.host("h0")
    t_local = run(sim, local(mem))
    mem.cache.drop_clean(0)
    t_pool = run(sim, pooled(mem))
    ratio = (t_pool - DEFAULT_TIMINGS.cpu_issue_ns) / (
        t_local - DEFAULT_TIMINGS.cpu_issue_ns)
    assert ratio == pytest.approx(DEFAULT_TIMINGS.cxl_latency_multiplier)


def test_cache_hit_avoids_link(pod):
    sim, pod = pod
    mem = pod.host("h0")

    def proc(mem):
        yield from mem.load_line(POOL_BASE)   # miss: fills cache
        t0 = sim.now
        yield from mem.load_line(POOL_BASE)   # hit
        return sim.now - t0

    t_hit = run(sim, proc(mem))
    assert t_hit == pytest.approx(
        DEFAULT_TIMINGS.cpu_issue_ns + DEFAULT_TIMINGS.cache_hit_ns
    )


def test_nt_store_visible_to_other_host(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line_nt(POOL_BASE, LINE_A)

    def reader(mem):
        yield sim.timeout(1000.0)
        data = yield from mem.load_line(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == LINE_A


def test_nt_store_lands_exactly_at_commit_plus_store_latency(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    # Committed after the issue cost, visible one store latency later.
    visible_at = DEFAULT_TIMINGS.cpu_issue_ns + DEFAULT_TIMINGS.cxl_store_ns

    def writer():
        yield from h0.store_line_nt(POOL_BASE, LINE_A)

    def reader(at):
        yield sim.timeout(at)
        return (yield from h1.load_line_uncached(POOL_BASE))

    sim.spawn(writer())
    before = sim.spawn(reader(visible_at - 1.0))
    after = sim.spawn(reader(visible_at + 1.0))
    sim.run()
    assert before.value == bytes(64)
    assert after.value == LINE_A


def test_nt_store_to_an_mhd_that_dies_in_flight_is_dropped(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    mhd = pod.mhds[pod.route(POOL_BASE)[0]]
    seen = {}

    def writer():
        yield from h0.store_line_nt(POOL_BASE, LINE_A)   # committed
        mhd.fail()                                        # before it lands
        yield sim.timeout(1_000.0)
        mhd.repair()
        seen["line"] = yield from h0.load_line_uncached(POOL_BASE)

    sim.spawn(writer())
    sim.run()
    assert h0.stores_dropped == 1
    # Lost, and its store-buffer entry retired: the writer no longer
    # forwards the line to itself.
    assert seen["line"] == bytes(64)


def test_dirty_eviction_writeback_lands_at_the_store_latency(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    h0.cache.capacity_lines = 1
    evicted_at = {}

    def writer():
        yield from h0.store_line(POOL_BASE, LINE_A)        # dirty in cache
        yield from h0.store_line(POOL_BASE + 64, LINE_B)   # evicts it
        evicted_at["t"] = sim.now

    def reader(after_eviction):
        yield sim.timeout(DEFAULT_TIMINGS.cpu_issue_ns * 2
                          + DEFAULT_TIMINGS.cache_hit_ns * 2
                          + DEFAULT_TIMINGS.cxl_store_ns + after_eviction)
        return (yield from h1.load_line_uncached(POOL_BASE))

    sim.spawn(writer())
    before = sim.spawn(reader(-1.0))
    after = sim.spawn(reader(1.0))
    sim.run()
    assert h0.cache.writebacks == 1
    assert before.value == bytes(64)
    assert after.value == LINE_A


def test_dirty_eviction_to_an_mhd_that_dies_in_flight_is_dropped(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    h0.cache.capacity_lines = 1
    mhd = pod.mhds[pod.route(POOL_BASE)[0]]

    def writer():
        yield from h0.store_line(POOL_BASE, LINE_A)
        yield from h0.store_line(POOL_BASE + 64, LINE_B)   # writeback posted
        mhd.fail()                                          # before it lands
        yield sim.timeout(1_000.0)
        mhd.repair()

    done = sim.spawn(writer())
    sim.run()
    assert done.ok                       # the run continues past the drop
    assert h0.cache.writebacks == 1
    assert h0.stores_dropped == 1
    assert pod.pool_read(POOL_BASE, 64) == bytes(64)


def test_temporal_store_invisible_to_other_host_stale_hazard(pod):
    """THE hazard: temporal stores sit dirty in the writer's cache and the
    pool (hence every other host) keeps the stale value."""
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_A)  # cached, dirty

    def reader(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.load_line(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == bytes(64)  # h1 sees zeros, not LINE_A: stale!


def test_cached_reader_misses_remote_update_until_invalidate(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    results = {}

    def reader(mem):
        first = yield from mem.load_line(POOL_BASE)   # caches zeros
        yield sim.timeout(5000.0)                      # h0 publishes LINE_A
        second = yield from mem.load_line(POOL_BASE)  # stale hit!
        yield from mem.invalidate_line(POOL_BASE)
        third = yield from mem.load_line(POOL_BASE)   # fresh after inval
        results.update(first=first, second=second, third=third)

    def writer(mem):
        yield sim.timeout(1000.0)
        yield from mem.store_line_nt(POOL_BASE, LINE_A)

    sim.spawn(reader(h1))
    sim.spawn(writer(h0))
    sim.run()
    assert results["first"] == bytes(64)
    assert results["second"] == bytes(64)  # stale cached copy
    assert results["third"] == LINE_A      # fresh after invalidate


def test_flush_publishes_dirty_line(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")

    def writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)
        yield from mem.flush_line(POOL_BASE)

    def reader(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.load_line_uncached(POOL_BASE)
        return data

    sim.spawn(writer(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == LINE_B


def test_span_roundtrip_through_cache(pod):
    sim, pod = pod
    mem = pod.host("h0")
    payload = bytes(i % 253 for i in range(300))

    def proc(mem):
        yield from mem.write_span(POOL_BASE + 30, payload)
        data = yield from mem.read_span(POOL_BASE + 30, len(payload))
        return data

    assert run(sim, proc(mem)) == payload


def test_dma_write_visible_to_remote_uncached_reader(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    payload = bytes(range(256))

    def dma(mem):
        yield from mem.dma_write(POOL_BASE, payload)

    def reader(mem):
        yield sim.timeout(100_000.0)
        data = yield from mem.read_span(POOL_BASE, 256, uncached=True)
        return data

    sim.spawn(dma(h0))
    p = sim.spawn(reader(h1))
    sim.run()
    assert p.value == payload


def test_dma_write_snoops_local_cache(pod):
    sim, pod = pod
    h0 = pod.host("h0")

    def proc(mem):
        first = yield from mem.load_line(POOL_BASE)      # caches zeros
        yield from mem.dma_write(POOL_BASE, LINE_A)      # local DMA snoop
        second = yield from mem.load_line(POOL_BASE)     # must be fresh
        return first, second

    first, second = run(sim, proc(h0))
    assert first == bytes(64)
    assert second == LINE_A


def test_dma_read_sees_local_dirty_lines(pod):
    sim, pod = pod
    h0 = pod.host("h0")

    def proc(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)   # dirty in cache only
        data = yield from mem.dma_read(POOL_BASE, 64)  # local DMA snoops
        return data

    assert run(sim, proc(h0)) == LINE_B


def test_dma_read_does_not_see_remote_dirty_lines(pod):
    sim, pod = pod
    h0, h1 = pod.host("h0"), pod.host("h1")
    out = {}

    def remote_writer(mem):
        yield from mem.store_line(POOL_BASE, LINE_B)  # dirty on h1

    def local_dma(mem):
        yield sim.timeout(5000.0)
        data = yield from mem.dma_read(POOL_BASE, 64)
        out["data"] = data

    sim.spawn(remote_writer(h1))
    sim.spawn(local_dma(h0))
    sim.run()
    assert out["data"] == bytes(64)  # h1's dirty line is invisible to h0 DMA


def test_pool_dma_uses_all_links_in_parallel(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    size = 1 << 20  # 1 MiB split across 2 x8 links

    def dma(mem):
        t0 = sim.now
        yield from mem.dma_write(POOL_BASE, bytes(size))
        return sim.now - t0

    elapsed = run(sim, dma(h0))
    one_link = size / 30.0
    two_links = (size / 2) / 30.0
    # Must be near the two-link time, far below the single-link time.
    assert elapsed < one_link * 0.75
    assert elapsed > two_links * 0.9
    assert h0.port.links[0].bytes_written > 0
    assert h0.port.links[1].bytes_written > 0


def test_local_dram_dma_roundtrip(pod):
    sim, pod = pod
    h0 = pod.host("h0")
    payload = b"local-buffer-data" * 3

    def proc(mem):
        yield from mem.dma_write(4096, payload)
        data = yield from mem.dma_read(4096, len(payload))
        return data

    assert run(sim, proc(h0)) == payload


@pytest.mark.parametrize("offset,size", [(0, 64), (10, 20), (63, 1)])
def test_one_line_uncached_read_span_is_load_line_uncached(offset, size):
    """A span inside one line reads as ``load_line_uncached`` of its line
    would: sampled at issue, forwarding this host's NT store, with the
    same latency, link counters and raises."""

    def script(one_line):
        sim = Simulator(seed=3)
        pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2,
                                    mhd_capacity=1 << 26))
        mem, other = pod.host("h0"), pod.host("h1")
        addr = POOL_BASE + 4096 + offset
        base = addr - addr % 64
        pod.hosts["h0"].port.links[0].set_jitter(
            30.0, sim.rng.stream("jitter"))
        log = []

        def read():
            start = sim.now
            try:
                data = yield from one_line(mem, addr, base)
            except Exception as exc:  # noqa: BLE001 - compared, not hidden
                data = type(exc).__name__
            log.append((data, sim.now - start,
                        mem.port.links[0].line_ops))

        def proc():
            yield from other.store_line_nt(base, LINE_A)
            yield from read()          # issued before LINE_A lands
            yield sim.timeout(1_000.0)
            yield from read()
            yield from mem.store_line_nt(base, LINE_B)
            yield from read()          # forwarded from the store buffer
            yield sim.timeout(1_000.0)
            pod.poison(base)
            yield from read()
            pod.fail_mhd(0)
            yield from read()

        sim.spawn(proc())
        sim.run()
        return log

    def via_span(mem, addr, _base):
        return (yield from mem.read_span(addr, size, uncached=True))

    def via_line(mem, addr, base):
        line = yield from mem.load_line_uncached(base)
        return line[addr - base:addr - base + size]

    log = script(via_span)
    assert log == script(via_line)
    assert [entry[0] for entry in log[3:]] == ["PoisonedMemoryError",
                                                "MhdFailedError"]


def test_read_span_rejects_an_empty_span(pod):
    sim, pod = pod
    with pytest.raises(ValueError):
        run(sim, pod.host("h0").read_span(POOL_BASE, 0, uncached=True))
