"""Bulk memory operations walk device runs exactly as a line loop would.

``write_bulk``, the posted-store landing, ``read_bulk``, ``dma_write`` and
``dma_read`` on a host, ``pool_read``, ``pool_write`` and the allocation
scrub on the pod, and ``read``/``write`` on the media walk device runs
(one per MHD an interleaved span touches, or one span inside a RAS
window): one latency draw and one media call per run.  The reference
below is the same operations written one 64 B line at a time.  Both run
the same random schedules on a 2-MHD and a 3-MHD pod, with link and MHD
failures, poison, line watches and a jittered and a slowed link, and must
agree on every outcome and on every piece of state after every operation.
"""

from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cxl.address import CACHELINE_BYTES, line_base, line_range
from repro.cxl.allocator import AllocationError
from repro.cxl.device import CxlMemoryDevice, LocalDram
from repro.cxl.link import DmaCompletion, LinkDownError
from repro.cxl.memsys import HostMemorySystem
from repro.cxl.mhd import MhdFailedError
from repro.cxl.pod import POOL_BASE, CxlPod, PartialPoolWriteError, PodConfig
from repro.sim import Simulator
from repro.sim.errors import SimError

_ZERO_LINE = bytes(CACHELINE_BYTES)
LOCAL_BASE = 4096


def config(n_mhds):
    return PodConfig(n_hosts=2, n_mhds=n_mhds, mhd_capacity=1 << 20,
                     ras_bytes_per_mhd=1 << 16)


# -- the per-line reference ------------------------------------------------


class _LineMedium:
    """Span reads and writes, and the scrub, one line at a time."""

    def read(self, addr, size):
        self._check(addr, size)
        out = bytearray()
        cur = addr
        remaining = size
        poisoned = self.poisoned_lines
        while remaining > 0:
            base = line_base(cur)
            off = cur - base
            take = min(CACHELINE_BYTES - off, remaining)
            if poisoned:
                self._check_poison(base)
            out += self._lines.get(base, _ZERO_LINE)[off:off + take]
            cur += take
            remaining -= take
        return bytes(out)

    def write(self, addr, data):
        self._check(addr, len(data))
        watchers = self._watchers
        cur = addr
        pos = 0
        while pos < len(data):
            base = line_base(cur)
            off = cur - base
            take = min(CACHELINE_BYTES - off, len(data) - pos)
            if base in self.poisoned_lines:
                self._scrub(base)
                self._lines.pop(base, None)
            line = bytearray(self._lines.get(base, _ZERO_LINE))
            line[off:off + take] = data[pos:pos + take]
            self._lines[base] = bytes(line)
            if watchers:
                self._changed(base)
            cur += take
            pos += take

    def clear_line(self, addr):
        self._check(addr)
        if self.poisoned_lines:
            self._scrub(addr)
        self._lines.pop(addr, None)
        if self._watchers:
            self._changed(addr)


class LineDevice(_LineMedium, CxlMemoryDevice):
    pass


class LineDram(_LineMedium, LocalDram):
    pass


class LinePod(CxlPod):
    """Pool access and the allocation scrub routed per chunk and line."""

    def pool_read(self, addr, size):
        chunks = self._chunks(addr, size)
        routed = [self.route(chunk_addr) for _link, chunk_addr, _sz in chunks]
        for mhd_idx, _media, _dev in routed:
            self.mhds[mhd_idx].check_alive()
        out = bytearray()
        for (_link, _chunk_addr, chunk_size), (_idx, media, dev_addr) \
                in zip(chunks, routed, strict=True):
            out += media.read(dev_addr, chunk_size)
        return bytes(out)

    def pool_write(self, addr, data):
        chunks = self._chunks(addr, len(data))
        routed = [self.route(chunk_addr) for _link, chunk_addr, _sz in chunks]
        for mhd_idx, _media, _dev in routed:
            self.mhds[mhd_idx].check_alive()
        pos = 0
        for (_link, _chunk_addr, chunk_size), (mhd_idx, media, dev_addr) \
                in zip(chunks, routed, strict=True):
            try:
                self.mhds[mhd_idx].check_alive()
                media.write(dev_addr, data[pos:pos + chunk_size])
            except LinkDownError as exc:
                raise PartialPoolWriteError(addr, pos, len(data)) from exc
            pos += chunk_size

    def _chunks(self, addr, size):
        offset = self.pool_range.offset_of(addr)
        if not self.pool_range.contains(addr, size):
            raise ValueError(
                f"pool span [{addr:#x}, {addr + size:#x}) exceeds pool")
        if size == 0:
            return []
        if offset + size > self.interleaved_capacity:
            return [(self._ras_span_index(offset, size), addr, size)]
        return [
            (link, self.pool_range.base + chunk_off, chunk_size)
            for link, chunk_off, chunk_size in self._blocks(offset, size)
        ]

    def _blocks(self, offset, size):
        """``(mhd, offset, size)`` per interleave block of a span of the
        interleaved region, in address order: block k is on MHD k mod n."""
        gran, n = self.config.interleave_bytes, self.config.n_mhds
        end = offset + size
        return [(block % n, max(offset, block * gran),
                 min(end, (block + 1) * gran) - max(offset, block * gran))
                for block in range(offset // gran, (end - 1) // gran + 1)]

    def span_bytes_per_link(self, offset, size):
        if offset + size <= self.interleaved_capacity:
            totals = {}
            for link, _chunk_off, chunk_size in self._blocks(offset, size):
                totals[link] = totals.get(link, 0) + chunk_size
            return totals
        return {self._ras_span_index(offset, size): size}

    def _ras_span_index(self, offset, size):
        if offset < self.interleaved_capacity:
            raise ValueError(
                f"pool span at offset {offset:#x} straddles the "
                "interleaved/direct boundary")
        rel = offset - self.interleaved_capacity
        first = rel // self.ras_window_bytes
        if first != (rel + size - 1) // self.ras_window_bytes:
            raise ValueError(
                f"pool span at offset {offset:#x} (+{size}) crosses a "
                "RAS window boundary")
        return first

    def _scrub_on_allocate(self, rng):
        for addr in range(rng.base, rng.base + rng.size, CACHELINE_BYTES):
            _idx, media, dev_addr = self.route(addr)
            media.clear_line(dev_addr)


class LineHost(HostMemorySystem):
    """Bulk copies, landings and DMAs one 64 B line at a time."""

    def _medium_write_line(self, addr, data):
        if self._pool_base <= addr < self._pool_top:
            mhd, media, dev, _link = self._route_cached(addr)
            if mhd.failed:
                raise MhdFailedError(mhd)
            media.write_line(dev, data)
        else:
            self.port.local_dram.write_line(addr, data)

    def _store_latency(self, addr):
        if self._pool_base <= addr < self._pool_top:
            return self._route_cached(addr)[3].store_latency()
        return self.timings.ddr5_store_ns

    def _buffer_nt(self, addr, data):
        delay = self._store_latency(addr)
        self._store_wid += 1
        wid = self._store_wid
        self._store_buffer[addr] = (wid, data)
        return delay, ((addr,), (data,), (wid,), None, None, None)

    def _land_lines(self, landing):
        buffer = self._store_buffer
        for bases, lines, wids, _mhd, _medium, _dev in landing.value:
            for i, (line_addr, data) in enumerate(zip(bases, lines)):
                try:
                    self._medium_write_line(line_addr, data)
                except LinkDownError:
                    self.stores_dropped += 1
                if wids is not None:
                    entry = buffer.get(line_addr)
                    if entry is not None and entry[0] == wids[i]:
                        del buffer[line_addr]

    def _stream_time(self, addr, size):
        if not self._is_pool(addr):
            return size / self.timings.ddr5_bandwidth_gbps
        offset = self.pod.pool_range.offset_of(addr)
        per_link = self.pod.span_bytes_per_link(offset, size)
        return max(nbytes / self.port.links[idx].bandwidth
                   for idx, nbytes in per_link.items())

    def write_bulk(self, addr, data, nt=False):
        size = len(data)
        if size == 0:
            return
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + self._stream_time(addr, size))
        now = self.sim.now
        landings = {}
        try:
            pos = 0
            for base in line_range(addr, size):
                off = max(addr - base, 0)
                take = min(CACHELINE_BYTES - off, size - pos)
                if off == 0 and take == CACHELINE_BYTES:
                    line = data[pos:pos + take]
                else:
                    current = self._peek_line(base)
                    line = (current[:off] + data[pos:pos + take]
                            + current[off + take:])
                if nt:
                    self.cache.drop_clean(base)
                    delay, posted = self._buffer_nt(base, bytes(line))
                    at = now + delay
                    group = landings.get(at)
                    if group is None:
                        landings[at] = (delay, [posted])
                    else:
                        group[1].append(posted)
                else:
                    self._handle_evictions(self.cache.write(base, line))
                pos += take
        finally:
            for delay, lines in landings.values():
                self._post_lines(delay, lines, "nt-drain")

    def read_bulk(self, addr, size, uncached=False):
        if size == 0:
            return b""
        yield self.sim.timeout(
            self.timings.cpu_issue_ns
            + self._miss_latency(addr - addr % CACHELINE_BYTES)
            + self._stream_time(addr, size))
        out = bytearray()
        for base in line_range(addr, size):
            if uncached:
                buffered = self._store_buffer.get(base)
                line = (buffered[1] if buffered is not None
                        else self._medium_read_line(base))
            else:
                line = self._peek_line(base)
            start = max(addr - base, 0)
            end = min(addr + size - base, CACHELINE_BYTES)
            out += line[start:end]
        return bytes(out)

    def dma_write(self, addr, data):
        yield from self._dma(addr, len(data), write=True)
        if self._is_pool(addr):
            self.pod.pool_write(addr, data)
        else:
            self.port.local_dram.write(addr, data)
        for base in line_range(addr, len(data)):
            self.cache.drop_clean(base)

    def dma_read(self, addr, size):
        yield from self._dma(addr, size, write=False)
        if self._is_pool(addr):
            data = bytearray(self.pod.pool_read(addr, size))
        else:
            data = bytearray(self.port.local_dram.read(addr, size))
        dirty = {a: d for a, (d, flag) in self.cache._lines.items() if flag}
        if dirty or self._store_buffer:
            for base in line_range(addr, size):
                buffered = self._store_buffer.get(base)
                line = dirty.get(base, buffered[1] if buffered else None)
                if line is None:
                    continue
                start = max(addr, base)
                end = min(addr + size, base + CACHELINE_BYTES)
                data[start - addr:end - addr] = line[start - base:end - base]
        return bytes(data)

    def _dma(self, addr, size, write):
        if not self._is_pool(addr):
            serialize = size / self.timings.ddr5_bandwidth_gbps
            base_lat = (self.timings.ddr5_store_ns if write
                        else self.timings.ddr5_load_ns)
            yield self.sim.timeout(serialize + base_lat)
            return
        offset = self.pod.pool_range.offset_of(addr)
        per_link = self.pod.span_bytes_per_link(offset, size)
        done = DmaCompletion(self.sim, len(per_link), self.timings, write)
        for link_idx, nbytes in sorted(per_link.items()):
            self.port.links[link_idx].book(done, nbytes, write)
        yield done.event


# -- one schedule, run on either side -------------------------------------


def build(line_by_line: bool, n_mhds: int = 2):
    sim = Simulator(seed=11)
    pod = CxlPod(sim, config(n_mhds))
    if line_by_line:
        pod.__class__ = LinePod
        for mhd in pod.mhds:
            mhd.memory.__class__ = LineDevice
        for mem in pod.hosts.values():
            mem.__class__ = LineHost
            mem.port.local_dram.__class__ = LineDram
    return sim, pod


def region_base(pod, region):
    if region == "interleaved":
        return POOL_BASE
    if region == "local":
        return LOCAL_BASE
    window = int(region[-1])
    return POOL_BASE + pod.interleaved_capacity + window * pod.ras_window_bytes


def payload(fill, size):
    return bytes((fill + 7 * i) % 251 for i in range(size))


def snapshot(pod):
    hosts = [pod.hosts[h] for h in pod.host_ids]
    media = [mhd.memory for mhd in pod.mhds]
    media += [mem.port.local_dram for mem in hosts]
    return (
        [(dict(m._lines), sorted(m.poisoned_lines), m.poisons_injected,
          m.poison_reads, m.poisons_scrubbed) for m in media],
        [(dict(mem._store_buffer), mem._store_wid,
          list(mem.cache._lines.items()), mem.cache.hits, mem.cache.misses,
          mem.cache.writebacks, mem.stores_dropped) for mem in hosts],
        [(link.up, link.line_ops, link.bytes_written, link.bytes_read,
          link.bulk_ops) for mem in hosts for link in mem.port.links],
    )


def run_schedule(schedule, line_by_line, n_mhds=2):
    """Run ``schedule`` (``(gap_ns, op)`` pairs) on an ``n_mhds`` pod and
    return everything either side must agree on."""
    sim, pod = build(line_by_line, n_mhds)
    log, landings, watches, allocations = [], [], [], []

    for host_id, mem in pod.hosts.items():
        land = mem._land_lines

        def recorded(landing, land=land, host_id=host_id):
            # A landing's lines in address order, as the line loop
            # commits and lands them (a run holds one MHD's lines).
            landings.append((sim.now, host_id, landing.name, sorted(
                base for bases, *_run in landing.value for base in bases)))
            land(landing)

        mem._land_lines = recorded

    def medium_of(region, offset):
        addr = line_base(region_base(pod, region) + offset)
        if region == "local":
            return pod.hosts["h0"].port.local_dram, addr
        _idx, media, dev = pod.route(addr)
        return media, dev

    def perform(index, op):
        kind, args = op[0], op[1:]
        if kind in ("write_bulk", "read_bulk", "dma_write", "dma_read"):
            host, (region, offset, size) = args[0], args[1]
            mem = pod.hosts[host]
            addr = region_base(pod, region) + offset
            if kind == "write_bulk":
                yield from mem.write_bulk(addr, payload(args[3], size),
                                          nt=args[2])
                return None
            if kind == "read_bulk":
                return (yield from mem.read_bulk(addr, size,
                                                 uncached=args[2]))
            if kind == "dma_write":
                yield from mem.dma_write(addr, payload(args[2], size))
                return None
            return (yield from mem.dma_read(addr, size))
        if kind in ("store_line", "store_line_nt", "load_line"):
            host, (region, offset) = args[0], args[1]
            mem = pod.hosts[host]
            addr = line_base(region_base(pod, region) + offset)
            if kind == "load_line":
                return (yield from mem.load_line(addr))
            verb = mem.store_line if kind == "store_line" else \
                mem.store_line_nt
            yield from verb(addr, payload(args[2], CACHELINE_BYTES))
            return None
        if kind in ("link_down", "link_up", "jitter", "slow"):
            host, idx = args[0], args[1]
            link = pod.hosts[host].port.links[idx]
            if kind == "link_down":
                link.fail()
            elif kind == "link_up":
                link.restore()
            elif kind == "jitter":
                link.set_jitter(40.0, sim.rng.stream(f"jitter:{host}/{idx}"))
            else:
                link.slow(3.0)
        elif kind == "mhd_fail":
            pod.fail_mhd(args[0])
        elif kind == "mhd_repair":
            pod.repair_mhd(args[0])
        elif kind == "poison":
            region, offset = args[0]
            pod.poison(region_base(pod, region) + offset, n_lines=args[1])
        elif kind == "watch":
            media, dev = medium_of(*args[0])
            media.watch_line(dev, lambda: watches.append((sim.now, index)))
        elif kind == "allocate":
            alloc = pod.allocate(args[0], owners=["h0"], mhd_index=args[1])
            allocations.append(alloc)
            return (alloc.range.base, alloc.range.size)
        elif kind == "free" and allocations:
            pod.free(allocations.pop())
        return None

    def runner(index, start, op):
        yield sim.timeout(start)
        try:
            outcome = ("ok", (yield from perform(index, op)))
        except (SimError, ValueError, AllocationError) as exc:
            outcome = (type(exc).__name__, str(exc))
        log.append((sim.now, index, outcome, snapshot(pod)))

    start = 0.0
    for index, (gap, op) in enumerate(schedule):
        start += gap
        sim.spawn(runner(index, start, op), name=f"op{index}")
    try:
        sim.run()
        crash = None
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        crash = (type(exc).__name__, str(exc))
    return log, landings, watches, crash, snapshot(pod)


# -- schedules -------------------------------------------------------------

HOSTS = st.sampled_from(["h0", "h1"])
POOL_REGIONS = st.sampled_from(["interleaved", "ras0", "ras1"])
#: Offsets and sizes that sit on and next to line and interleave-block
#: edges, so schedules keep touching the same few lines.
OFFSETS = st.one_of(st.sampled_from([0, 1, 63, 64, 200, 255, 256, 320, 511]),
                    st.integers(0, 1023))
SIZES = st.one_of(st.sampled_from([1, 64, 65, 256, 257, 394, 512, 1024]),
                  st.integers(1, 1100))
FILL = st.integers(0, 250)


def operations(n_mhds):
    mhds = st.sampled_from(range(n_mhds))
    windows = [f"ras{i}" for i in range(n_mhds)]
    regions = st.sampled_from(["interleaved", *windows, "local"])
    spans = st.tuples(regions, OFFSETS, SIZES)
    lines = st.tuples(regions, OFFSETS)
    pool_lines = st.tuples(st.sampled_from(["interleaved", *windows]),
                           OFFSETS)
    return st.one_of(
        st.tuples(st.just("write_bulk"), HOSTS, spans, st.booleans(), FILL),
        st.tuples(st.just("write_bulk"), HOSTS, spans, st.just(True), FILL),
        st.tuples(st.just("read_bulk"), HOSTS, spans, st.booleans()),
        st.tuples(st.just("dma_write"), HOSTS, spans, FILL),
        st.tuples(st.just("dma_read"), HOSTS, spans),
        st.tuples(st.just("store_line"), HOSTS, lines, FILL),
        st.tuples(st.just("store_line_nt"), HOSTS, lines, FILL),
        st.tuples(st.just("load_line"), HOSTS, lines),
        st.tuples(st.sampled_from(["link_down", "link_up", "jitter", "slow"]),
                  HOSTS, mhds),
        st.tuples(st.sampled_from(["mhd_fail", "mhd_repair"]), mhds),
        st.tuples(st.just("poison"), pool_lines, st.integers(1, 4)),
        st.tuples(st.just("watch"), lines),
        st.tuples(st.just("allocate"), st.integers(1, 3000),
                  st.sampled_from([None, *range(n_mhds)])),
        st.tuples(st.just("free")),
    )


GAPS = st.sampled_from([0.0, 30.0, 120.0, 204.25, 260.0, 700.0, 3000.0])


def schedules(n_mhds):
    return st.lists(st.tuples(GAPS, operations(n_mhds)),
                    min_size=3, max_size=24)


#: An MHD is down while h0's link to it is up, and a payload's partial
#: last line lies on that MHD: the merge raises there, after the payload's
#: whole lines on the same extent have already drawn their latencies.
TRAP = [
    (0.0, ("mhd_fail", 1)),
    (0.0, ("link_up", "h0", 1)),
    (0.0, ("write_bulk", "h0", ("interleaved", 0, 394), True, 3)),
]
#: Schedules the random ones reach only rarely, one per ordering rule.
PINNED = [
    TRAP,
    # A link goes down under payloads that span both MHDs.
    [(0.0, ("write_bulk", "h0", ("interleaved", 0, 1024), True, 5)),
     (0.0, ("link_down", "h0", 1)),
     (0.0, ("write_bulk", "h0", ("interleaved", 64, 1000), True, 9)),
     (0.0, ("read_bulk", "h0", ("interleaved", 0, 1024), True)),
     (900.0, ("read_bulk", "h1", ("interleaved", 0, 1024), True))],
    # Jittered and slowed links: one payload lands at many instants, and
    # watches fire in line order.
    [(0.0, ("jitter", "h0", 0)),
     (0.0, ("slow", "h0", 1)),
     (0.0, ("watch", ("interleaved", 256))),
     (0.0, ("watch", ("interleaved", 64))),
     (0.0, ("watch", ("interleaved", 0))),
     (0.0, ("write_bulk", "h0", ("interleaved", 7, 1100), True, 1)),
     (30.0, ("read_bulk", "h0", ("interleaved", 0, 1200), True)),
     (30.0, ("dma_read", "h0", ("interleaved", 0, 1200)))],
    # A down link raises at an extent's first line, which alone is
    # snooped: a cached line later in the extent stays.
    [(0.0, ("store_line", "h0", ("interleaved", 64), 2)),
     (0.0, ("link_down", "h0", 0)),
     (30.0, ("write_bulk", "h0", ("interleaved", 0, 256), True, 4))],
    # A DMA read overlays a dirty cached line ahead of a store-buffer
    # entry for the same line.
    [(0.0, ("dma_read", "h0", ("interleaved", 0, 128))),
     (100.0, ("store_line_nt", "h0", ("interleaved", 0), 6)),
     (20.0, ("store_line", "h0", ("interleaved", 0), 7))],
    # Watches fire in address order as a DMA lands its lines.
    [(0.0, ("watch", ("ras0", 64))),
     (0.0, ("watch", ("ras0", 0))),
     (0.0, ("dma_write", "h1", ("ras0", 0, 128), 8))],
    # A partial DMA write over a poisoned line merges against zeros.
    [(0.0, ("write_bulk", "h0", ("interleaved", 0, 256), True, 3)),
     (3000.0, ("poison", ("interleaved", 0), 1)),
     (0.0, ("dma_write", "h1", ("interleaved", 10, 20), 5)),
     (3000.0, ("read_bulk", "h1", ("interleaved", 0, 256), True))],
    # Watched lines on two MHDs (blocks 1 and 6: MHD 1, then MHD 0 of two
    # or of three) inside one NT payload and inside one DMA write fire in
    # address order, not run by run.
    [(0.0, ("watch", ("interleaved", 1600))),
     (0.0, ("watch", ("interleaved", 320))),
     (0.0, ("write_bulk", "h0", ("interleaved", 0, 2048), True, 2)),
     (3000.0, ("watch", ("interleaved", 1600))),
     (0.0, ("watch", ("interleaved", 320))),
     (0.0, ("dma_write", "h1", ("interleaved", 0, 2048), 4))],
    # Poison on two MHDs: the first poisoned line in address order (block
    # 1) is on the MHD the span touches second, so it raises, not the one
    # on the run read first (block 6).
    [(0.0, ("poison", ("interleaved", 1536), 1)),
     (0.0, ("poison", ("interleaved", 256), 1)),
     (0.0, ("dma_read", "h0", ("interleaved", 0, 2048))),
     (0.0, ("read_bulk", "h0", ("interleaved", 0, 2048), True)),
     (0.0, ("read_bulk", "h1", ("interleaved", 0, 2048), False))],
    # The link to the MHD of a span's second block is down: a payload
    # commits its first block and raises there, and a DMA fails.
    [(0.0, ("link_down", "h0", 1)),
     (0.0, ("write_bulk", "h0", ("interleaved", 200, 1024), True, 6)),
     (0.0, ("read_bulk", "h0", ("interleaved", 200, 1024), True)),
     (0.0, ("dma_write", "h0", ("interleaved", 200, 1024), 7)),
     (3000.0, ("read_bulk", "h1", ("interleaved", 0, 1300), True))],
    # The MHD of a span's second block has failed: reads raise at its
    # first line, not at the span's first run.
    [(0.0, ("mhd_fail", 1)),
     (0.0, ("read_bulk", "h0", ("interleaved", 64, 1024), True)),
     (0.0, ("read_bulk", "h0", ("interleaved", 64, 1024), False))],
    # A slowed MHD: one payload lands at two instants, each retiring its
    # own store-buffer entries; a read between them sees half of it.
    [(0.0, ("slow", "h0", 1)),
     (0.0, ("watch", ("interleaved", 320))),
     (0.0, ("watch", ("interleaved", 64))),
     (0.0, ("write_bulk", "h0", ("interleaved", 0, 1024), True, 8)),
     (300.0, ("read_bulk", "h1", ("interleaved", 0, 1024), True)),
     (0.0, ("read_bulk", "h0", ("interleaved", 0, 1024), True)),
     (3000.0, ("read_bulk", "h1", ("interleaved", 0, 1024), True))],
    # The allocation scrub clears watched lines on two MHDs in address
    # order.
    [(0.0, ("watch", ("interleaved", 1600))),
     (0.0, ("watch", ("interleaved", 320))),
     (0.0, ("allocate", 2048, None))],
]


def pinned(test):
    for schedule in PINNED:
        test = example(schedule)(test)
    return test


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules(2))
@pinned
def test_extent_walk_matches_the_line_loop(schedule):
    assert run_schedule(schedule, False) == run_schedule(schedule, True)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules(3))
@pinned
def test_extent_walk_matches_the_line_loop_on_three_mhds(schedule):
    assert (run_schedule(schedule, False, n_mhds=3)
            == run_schedule(schedule, True, n_mhds=3))


def test_partial_last_line_on_a_failed_mhd_raises_after_the_whole_lines():
    log, landings, _watches, crash, final = run_schedule(TRAP, False)
    assert crash is None
    _now, _index, outcome, state = log[-1]
    assert outcome[0] == "MhdFailedError"
    links = state[2]
    assert [ops for _up, ops, *_bytes in links[:2]] == [4, 2]
    h0_dropped = final[1][0][-1]
    assert h0_dropped == 2
    # The two whole lines on MHD 1 were posted and then dropped.
    assert [lines for *_when, lines in landings] == [
        [POOL_BASE + i * CACHELINE_BYTES for i in range(4)]
        + [POOL_BASE + 256 + i * CACHELINE_BYTES for i in range(2)]]


@settings(max_examples=300, deadline=None)
@given(n_mhds=st.sampled_from([2, 3]), region=POOL_REGIONS,
       offset=st.integers(0, 60_000), size=st.integers(1, 5000))
def test_extents_agree_with_route_for_every_line(n_mhds, region, offset,
                                                 size):
    _sim, pod = build(False, n_mhds)
    addr = region_base(pod, region) + offset
    if region != "interleaved":
        size = min(size, pod.ras_window_bytes - offset)
    runs = pod.extents(addr, size)
    assert sum(length for *_route, length in runs) == size
    by_mhd = {idx: (media, dev) for idx, media, dev, _length in runs}
    assert len(by_mhd) == len(runs)
    # Walk the span line by line in address order: each MHD's lines fill
    # its run from the run's first device byte on, and the runs come in
    # the order the walk first meets their MHDs.
    filled = {idx: 0 for idx in by_mhd}
    met = []
    for line in line_range(addr, size):
        at = max(line, addr)
        piece = min(line + CACHELINE_BYTES, addr + size) - at
        idx, media, dev = pod.route(at)
        if idx not in met:
            met.append(idx)
        assert (media, dev) == (by_mhd[idx][0], by_mhd[idx][1] + filled[idx])
        filled[idx] += piece
    assert met == [idx for idx, *_run in runs]
    assert filled == {idx: length for idx, _media, _dev, length in runs}
    if region == "interleaved":
        gran = pod.config.interleave_bytes
        blocks = (addr + size - 1) // gran - addr // gran + 1
        assert len(runs) == min(n_mhds, blocks)
    else:
        assert len(runs) == 1


def count_media_calls(pod):
    """Count the media calls made on each MHD, by ``(mhd, method)``; a
    call another counted call makes is not counted again."""
    calls = Counter()
    depth = [0]
    for idx, mhd in enumerate(pod.mhds):
        media = mhd.memory
        for name in ("read", "write", "write_lines", "clear_lines",
                     "read_line", "write_line"):
            def counted(*args, _method=getattr(media, name),
                        _key=(idx, name)):
                if not depth[0]:
                    calls[_key] += 1
                depth[0] += 1
                try:
                    return _method(*args)
                finally:
                    depth[0] -= 1
            setattr(media, name, counted)
    return calls


def test_interleaved_bulk_ops_make_one_media_call_per_mhd():
    size = 16 << 10
    data = payload(9, size)
    for n_mhds in (2, 3):
        sim, pod = build(False, n_mhds)
        calls = count_media_calls(pod)
        alloc = pod.allocate(size, owners=["h0"])
        assert pod.mhd_of(alloc.range.base) is None
        base = alloc.range.base
        mem = pod.hosts["h0"]

        def run(gen):
            proc = sim.spawn(gen)
            sim.run()
            return proc.value

        def once_per_mhd(name):
            return {(idx, name): 1 for idx in range(n_mhds)}

        assert calls == once_per_mhd("clear_lines")
        for op, name in [
            (lambda: pod.pool_write(base, data), "write"),
            (lambda: pod.pool_read(base, size), "read"),
            (lambda: run(mem.write_bulk(base, data, nt=True)), "write_lines"),
            (lambda: run(mem.read_bulk(base, size, uncached=True)), "read"),
            (lambda: run(mem.read_bulk(base, size)), "read"),
            (lambda: run(mem.dma_write(base, data)), "write"),
            (lambda: run(mem.dma_read(base, size)), "read"),
        ]:
            calls.clear()
            result = op()
            assert calls == once_per_mhd(name)
            assert result in (None, data)
