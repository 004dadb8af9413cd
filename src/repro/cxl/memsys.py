"""Per-host memory system: routes accesses, applies timing, keeps caches.

This is the layer CPU code (network stacks, agents, ring channels) and DMA
engines talk to.  It routes each physical address either to the host's
private DDR5 DRAM or — for addresses above :data:`repro.cxl.pod.POOL_BASE`
— through the host's CXL links to the pod's MHDs, applying the latency
model from :mod:`repro.cxl.params` along the way.

All CPU-side operations are **generator processes** (``yield from`` them
inside a simulation process).  The semantics that matter for correctness:

* ``load_line`` may return *stale* data if the line is cached and another
  host rewrote the pool — that is the non-coherence hazard;
* ``store_line`` dirties the local cache only; the pool sees nothing;
* ``store_line_nt`` makes data visible at the device after the CXL store
  latency (posted: the issuing CPU does not stall for visibility);
* ``dma_read``/``dma_write`` are device-initiated: coherent with *this*
  host's cache (snooped, like PCIe on x86) but not with remote caches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cxl.address import CACHELINE_BYTES, line_range
from repro.cxl.cache import CpuCache
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.link import DmaCompletion, LinkDownError
from repro.cxl.mhd import MhdFailedError
from repro.sim import Timeout

_ZERO_LINE = bytes(CACHELINE_BYTES)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cxl.pod import CxlPod, HostPort


class HostMemorySystem:
    """Memory interface of one host in the pod."""

    def __init__(self, sim, pod: "CxlPod", port: "HostPort",
                 cache: CpuCache | None = None):
        self.sim = sim
        self.pod = pod
        self.port = port
        self.host_id = port.host_id
        self.cache = cache or CpuCache(port.host_id)
        self.timings = pod.timings
        # Simple bump allocator over local DRAM for driver structures and
        # buffers (local placement baseline).  Address 0 is left unused so
        # "0" can mean "unconfigured" in device BAR registers.
        self._local_brk = CACHELINE_BYTES
        # Store buffer: NT stores (and flushes) that have been issued but
        # whose data has not yet reached the memory device.  This host's
        # own reads see these entries (store forwarding, as on real CPUs);
        # other hosts do not — they observe the device after the store
        # latency, which is the whole point of the visibility model.
        self._store_buffer: dict[int, tuple[int, bytes]] = {}
        self._store_wid = 0
        # RAS telemetry: posted writes (NT drains, dirty evictions) whose
        # target device died before the data landed.  The writes are
        # dropped — exactly what real posted stores to dead media do — and
        # counted so soaks can prove no loss went unobserved.
        self.stores_dropped = 0
        # Route memoization: the pool address map is static (interleave
        # stripes and RAS windows never move, and MHD/link/media objects
        # survive fail/repair), so line -> (mhd, media, dev_addr, link) is
        # a pure function worth caching — pollers hit the same line every
        # few tens of ns.  Liveness is still checked per access.
        self._pool_base = pod.pool_range.base
        self._pool_top = pod.pool_range.base + pod.pool_range.size
        self._route_cache: dict[int, tuple] = {}

    def alloc_local(self, size: int, label: str = "") -> int:
        """Reserve ``size`` bytes of local DRAM; returns the base address.

        A bump allocator is enough here: driver structures live for the
        whole simulation.  Raises when local DRAM is exhausted.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        aligned = ((size + CACHELINE_BYTES - 1)
                   // CACHELINE_BYTES) * CACHELINE_BYTES
        base = self._local_brk
        if base + aligned > self.port.local_dram.capacity:
            raise MemoryError(
                f"{self.host_id}: local DRAM exhausted allocating "
                f"{size} B for {label!r}"
            )
        self._local_brk = base + aligned
        return base

    # -- routing helpers -------------------------------------------------------

    def _is_pool(self, addr: int) -> bool:
        return self._pool_base <= addr < self._pool_top

    def _route_cached(self, addr: int) -> tuple:
        """Memoized route of a pool address: (mhd, media, dev_addr, link)."""
        entry = self._route_cache.get(addr)
        if entry is None:
            idx, media, dev = self.pod.route(addr)
            entry = (self.pod.mhds[idx], media, dev, self.port.links[idx])
            cache = self._route_cache
            if len(cache) >= 65536:
                # Bulk sweeps over huge buffers must not pin memory.
                cache.clear()
            cache[addr] = entry
        return entry

    def _medium_read_line(self, addr: int) -> bytes:
        if self._pool_base <= addr < self._pool_top:
            mhd, media, dev, _link = self._route_cached(addr)
            if mhd.failed:
                raise MhdFailedError(mhd)
            return media.read_line(dev)
        return self.port.local_dram.read_line(addr)

    def _medium_write_line(self, addr: int, data: bytes) -> None:
        if self._pool_base <= addr < self._pool_top:
            mhd, media, dev, _link = self._route_cached(addr)
            if mhd.failed:
                raise MhdFailedError(mhd)
            media.write_line(dev, data)
        else:
            self.port.local_dram.write_line(addr, data)

    # -- CPU line operations -----------------------------------------------------

    def load_line(self, addr: int):
        """Process: cached 64 B load.  Returns the line's bytes.

        A cache hit returns the cached copy even if the pool has newer
        data — consumers of shared memory must use :meth:`invalidate_line`
        or :meth:`load_line_uncached` first (software coherence).  This
        host's own in-flight NT stores are forwarded (store forwarding).
        """
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        cached = self.cache.lookup(addr)
        if cached is not None:
            yield self.sim.timeout(self.timings.cache_hit_ns)
            return cached
        buffered = self._store_buffer.get(addr)
        if buffered is not None:
            # Store forwarding: own pending NT store, visible immediately.
            yield self.sim.timeout(self.timings.cache_hit_ns)
            return buffered[1]
        data = self._medium_read_line(addr)  # sampled at issue time
        yield self.sim.timeout(self._miss_latency(addr))
        self._handle_evictions(self.cache.fill(addr, data))
        return data

    def store_line(self, addr: int, data: bytes):
        """Process: cached (temporal) 64 B store — pool does NOT see it."""
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + self.timings.cache_hit_ns
        )
        self._handle_evictions(self.cache.write(addr, data))

    def store_line_nt(self, addr: int, data: bytes):
        """Process: non-temporal 64 B store, posted to the device.

        The issuing CPU pays only the issue cost; the data becomes visible
        at the memory device after the CXL (or DDR) store latency.  Until
        then it sits in this host's store buffer, where the host's own
        reads (but nobody else's) can see it.
        """
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        self.cache.drop_clean(addr)
        self._commit_nt(addr, bytes(data))

    def flush_line(self, addr: int):
        """Process: clwb — write back the line if dirty (keeps it cached)."""
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        data = self.cache.take_dirty(addr)
        if data is None:
            return
        # clwb retires once the data is accepted; visibility is posted.
        self._commit_nt(addr, data)

    def invalidate_line(self, addr: int):
        """Process: drop the cached copy (forcing the next load to fetch).

        Dirty data is written back first (clflush semantics) so local
        modifications are not silently lost.
        """
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        dirty = self.cache.invalidate(addr)
        if dirty is not None:
            self._commit_nt(addr, dirty)

    def load_line_uncached(self, addr: int):
        """Process: 64 B load that bypasses the cache entirely.

        The device state is sampled when the request is *issued* (a load
        that starts before a concurrent store becomes visible misses it and
        still pays full latency) — this is what makes a polling loop's
        observed latency sit one full CXL read above the store-visibility
        time, the "slightly above one write + one read" floor of Figure 4.
        Own pending NT stores are forwarded; own *temporal* stores are
        not — do not mix cached writes with uncached polls on one line.
        """
        buffered = self._store_buffer.get(addr)
        data = (buffered[1] if buffered is not None
                else self._medium_read_line(addr))
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + self._miss_latency(addr)
        )
        return data

    def peek_uncached(self, addr: int, size: int) -> bytes | None:
        """What :meth:`load_line_uncached` would sample now for the
        ``size`` bytes at ``addr`` (within one pool line), with no side
        effect and no counter moved; None where that load would raise
        (a failed MHD, a poisoned line)."""
        base = addr - addr % CACHELINE_BYTES
        buffered = self._store_buffer.get(base)
        if buffered is not None:
            line = buffered[1]
        else:
            mhd, media, dev, _link = self._route_cached(base)
            line = None if mhd.failed else media.peek_line(dev)
            if line is None:
                return None
        return line[addr - base:addr - base + size]

    def watch_load(self, addr: int, on_line, on_link):
        """Arm one-shot watches on an uncached load of the pool line at
        ``addr``.

        ``on_line()`` runs once at the line's next write, clear or
        poison, and ``on_link()`` at the next change to how its link
        serves a load (down, up, slowed or jittered; see
        :meth:`CxlLink.watch`).  Returns ``(load_ns, cancel)``: the
        latency of a load issued now, and a callable that withdraws
        whichever watch has not fired.  Returns None, arming nothing, where a load
        depends on more than those two: the line is in this host's
        store buffer, or its MHD or link is down, or its link jitters
        (each load draws from the link's random stream).
        """
        base = addr - addr % CACHELINE_BYTES
        if base in self._store_buffer:
            return None
        mhd, media, dev, link = self._route_cached(base)
        if mhd.failed or not link.up or link.jitter_ns > 0.0:
            return None
        media.watch_line(dev, on_line)
        link.watch(on_link)

        def cancel():
            media.unwatch_line(dev, on_line)
            link.unwatch(on_link)

        # The sum load_line_uncached() times out on, with no jitter term.
        load_ns = (self.timings.cpu_issue_ns
                   + link.timings.cxl_load_ns * link.slow_factor)
        return load_ns, cancel

    def _commit_nt(self, addr: int, data: bytes) -> None:
        """Enter ``data`` into the store buffer and schedule visibility."""
        delay, line = self._buffer_nt(addr, data)
        self._post_lines(delay, (line,), "nt-drain")

    def _buffer_nt(self, addr: int, data: bytes) -> tuple[float, tuple]:
        """Draw an NT store's latency, then enter it in the store buffer.

        Returns the delay and the ``(addr, data, wid)`` line to post.  The
        draw comes first: a store to a down link raises before it leaves
        a store-buffer entry that no landing would ever retire.
        """
        delay = self._store_latency(addr)
        self._store_wid += 1
        wid = self._store_wid
        self._store_buffer[addr] = (wid, data)
        return delay, (addr, data, wid)

    def _post_lines(self, delay: float, lines, name: str) -> None:
        """Land posted ``(addr, data, wid)`` lines ``delay`` ns from now.

        One kernel event, no process, for lines that land at the same
        instant, in order: NT stores (``wid`` names the line's
        store-buffer entry) or a dirty-eviction writeback (``wid`` None).
        """
        landing = Timeout(self.sim, delay, value=lines, name=name)
        landing.callbacks.append(self._land_lines)

    def _land_lines(self, landing: Timeout) -> None:
        buffer = self._store_buffer
        for addr, data, wid in landing.value:
            try:
                self._medium_write_line(addr, data)
            except LinkDownError:
                # Posted write to a device that died in flight: the write
                # is lost (counted), never silently half-applied.
                self.stores_dropped += 1
            if wid is not None:
                entry = buffer.get(addr)
                if entry is not None and entry[0] == wid:
                    del buffer[addr]

    # -- convenience span operations (CPU, cached) -------------------------------

    def write_span(self, addr: int, data: bytes, nt: bool = False):
        """Process: store an arbitrary span line by line.

        Only whole-line semantics are modeled: partial first/last lines are
        read-modify-written functionally.  With ``nt=True`` every line is
        pushed straight to the device (publish semantics).
        """
        pos = 0
        for base in line_range(addr, len(data)):
            off = max(addr - base, 0)
            take = min(CACHELINE_BYTES - off, len(data) - pos)
            # Pay the store cost first; merge partial lines at commit time
            # (in this same resume) so interleaved writers to neighbouring
            # fragments of one cacheline never lose each other's update.
            if nt:
                yield self.sim.timeout(self.timings.cpu_issue_ns)
            else:
                yield self.sim.timeout(
                    self.timings.cpu_issue_ns + self.timings.cache_hit_ns
                )
            if off == 0 and take == CACHELINE_BYTES:
                line = data[pos:pos + take]
            else:
                current = self._peek_line(base)
                line = (current[:off] + data[pos:pos + take]
                        + current[off + take:])
            if nt:
                self.cache.drop_clean(base)
                self._commit_nt(base, bytes(line))
            else:
                self._handle_evictions(self.cache.write(base, line))
            pos += take

    def read_span(self, addr: int, size: int, uncached: bool = False):
        """Process: load an arbitrary span line by line; returns bytes."""
        out = bytearray()
        for base in line_range(addr, size):
            if uncached:
                line = yield from self.load_line_uncached(base)
            else:
                line = yield from self.load_line(base)
            start = max(addr - base, 0)
            end = min(addr + size - base, CACHELINE_BYTES)
            out += line[start:end]
        return bytes(out)

    def _peek_line(self, addr: int) -> bytes:
        """Functional read for read-modify-write (this host's view).

        Sees, in freshness order: this host's cache, its store buffer,
        then the memory device.  Never sees other hosts' caches — that is
        the hazard, not a bug.
        """
        cached = self.cache._lines.get(addr)
        if cached is not None:
            return cached[0]
        buffered = self._store_buffer.get(addr)
        if buffered is not None:
            return buffered[1]
        try:
            return self._medium_read_line(addr)
        except PoisonedMemoryError:
            # Read-modify-write of a poisoned line: the stale remainder is
            # unreadable anyway and the impending write scrubs the line,
            # so merge against zeros (the post-scrub contents).
            return _ZERO_LINE

    # -- bulk (memcpy-style) operations --------------------------------------

    def _stream_time(self, addr: int, size: int) -> float:
        """Pipelined streaming time for a bulk CPU copy of ``size`` bytes."""
        if not self._is_pool(addr):
            return size / self.timings.ddr5_bandwidth_gbps
        offset = self.pod.pool_range.offset_of(addr)
        per_link = self.pod.span_bytes_per_link(offset, size)
        return max(
            nbytes / self.port.links[idx].bandwidth
            for idx, nbytes in per_link.items()
        )

    def write_bulk(self, addr: int, data: bytes, nt: bool = False):
        """Process: streaming store of an arbitrary span (memcpy).

        Pays one issue cost plus bandwidth-bound streaming time, then
        commits every line atomically in a single resume.  With
        ``nt=True`` each line draws its store latency and enters the
        store buffer in order, and the lines that land at the same
        instant land together, in that order, in one event.  This is how
        payload buffers are filled; per-line :meth:`write_span` is for
        small control structures.
        """
        size = len(data)
        if size == 0:
            return
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + self._stream_time(addr, size)
        )
        now = self.sim.now
        # Landing instant -> (delay, lines).  Keyed on the instant, not
        # the delay: two delays can round to one instant.
        landings: dict[float, tuple[float, list]] = {}
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
            # A down link raises mid-payload: the lines committed before
            # it still land.
            for delay, lines in landings.values():
                self._post_lines(delay, lines, "nt-drain")

    def read_bulk(self, addr: int, size: int, uncached: bool = False):
        """Process: streaming load of an arbitrary span (memcpy).

        Pays one leading-miss latency plus bandwidth-bound streaming time.
        Data is assembled from this host's coherent view (cache unless
        ``uncached``, store buffer, then device); lines are not installed
        in the cache (streaming semantics).
        """
        if size == 0:
            return b""
        yield self.sim.timeout(
            self.timings.cpu_issue_ns
            + self._miss_latency(addr - addr % CACHELINE_BYTES)
            + self._stream_time(addr, size)
        )
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

    # -- DMA (device-initiated on this host) ---------------------------------------

    def dma_write(self, addr: int, data: bytes):
        """Process: a locally-attached PCIe device writes ``data``.

        Pool-bound spans are split over the host's CXL links at the pod's
        interleave granularity and transferred in parallel.  This host's
        cache is snooped (lines invalidated) like coherent PCIe DMA; remote
        hosts' caches are NOT — the cross-host hazard the design works
        around.
        """
        yield from self._dma(addr, len(data), write=True)
        if self._is_pool(addr):
            self.pod.pool_write(addr, data)
        else:
            self.port.local_dram.write(addr, data)
        for base in line_range(addr, len(data)):
            self.cache.drop_clean(base)

    def dma_read(self, addr: int, size: int):
        """Process: a locally-attached PCIe device reads ``size`` bytes.

        Snoops this host's dirty cache lines (local DMA is coherent) but
        sees only device data for lines dirtied on *other* hosts.
        """
        yield from self._dma(addr, size, write=False)
        if self._is_pool(addr):
            data = bytearray(self.pod.pool_read(addr, size))
        else:
            data = bytearray(self.port.local_dram.read(addr, size))
        # Overlay this host's store buffer and dirty lines (snoop): local
        # DMA is coherent with the issuing host, never with remote hosts.
        dirty = self.cache.dirty_lines()
        if dirty or self._store_buffer:
            for base in line_range(addr, size):
                buffered = self._store_buffer.get(base)
                line = dirty.get(base, buffered[1] if buffered else None)
                if line is None:
                    continue
                start = max(addr, base)
                end = min(addr + size, base + CACHELINE_BYTES)
                data[start - addr:end - addr] = (
                    line[start - base:end - base]
                )
        return bytes(data)

    def _dma(self, addr: int, size: int, write: bool):
        if not self._is_pool(addr):
            # Local DRAM: pay DDR bandwidth + store/load latency.
            serialize = size / self.timings.ddr5_bandwidth_gbps
            base_lat = (self.timings.ddr5_store_ns if write
                        else self.timings.ddr5_load_ns)
            yield self.sim.timeout(serialize + base_lat)
            return
        # Pool: one share per link per the interleave map, in parallel.
        offset = self.pod.pool_range.offset_of(addr)
        per_link = self.pod.span_bytes_per_link(offset, size)
        done = DmaCompletion(self.sim, len(per_link), self.timings, write)
        links = self.port.links
        for link_idx, nbytes in sorted(per_link.items()):
            links[link_idx].book(done, nbytes, write)
        yield done.event

    # -- internals ---------------------------------------------------------------

    def _miss_latency(self, addr: int) -> float:
        if self._pool_base <= addr < self._pool_top:
            return self._route_cached(addr)[3].load_latency()
        return self.timings.ddr5_load_ns

    def _store_latency(self, addr: int) -> float:
        if self._pool_base <= addr < self._pool_top:
            return self._route_cached(addr)[3].store_latency()
        return self.timings.ddr5_store_ns

    def _handle_evictions(self, evicted: list[tuple[int, bytes]]) -> None:
        # Dirty evictions write back asynchronously (like a real WB cache).
        for addr, data in evicted:
            try:
                delay = self._store_latency(addr)
            except LinkDownError:
                # Evicting a line whose device is gone: the writeback has
                # nowhere to go.  Must not blow up the (unrelated) access
                # that triggered the eviction.
                self.stores_dropped += 1
                continue
            self._post_lines(delay, ((addr, data, None),), "evict-wb")

    def __repr__(self) -> str:
        return f"<HostMemorySystem {self.host_id}>"
