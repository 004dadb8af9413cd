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

from itertools import chain
from typing import TYPE_CHECKING

from repro.cxl.address import CACHELINE_BYTES, line_base, line_range
from repro.cxl.cache import CpuCache
from repro.cxl.device import PoisonedMemoryError, _touches
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
        # a pure function worth caching for single-line accesses —
        # pollers hit the same line every few tens of ns.  Bulk copies
        # and DMAs walk device runs instead and leave the memo alone.
        # Liveness is still checked per access.
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

    def _line_route(self, addr: int) -> tuple:
        """Where one line lives: ``(mhd, medium, device_addr, link)``,
        with ``mhd`` and ``link`` None in local DRAM."""
        if self._pool_base <= addr < self._pool_top:
            return self._route_cached(addr)
        return None, self.port.local_dram, addr, None

    def _extents(self, addr: int, size: int) -> list[tuple]:
        """A span's device runs (:meth:`CxlPod.extents`); a span in
        local DRAM is one run whose MHD index is None."""
        if self._pool_base <= addr < self._pool_top:
            return self.pod.extents(addr, size)
        return [(None, self.port.local_dram, addr, size)]

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
        """Process: clwb — write back the line if dirty (keeps it cached).

        The writeback commits before the line is cleaned: over a down
        link it raises with the line still dirty.
        """
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        data = self.cache.dirty_line(addr)
        if data is not None:
            # clwb retires once the data is accepted; visibility is posted.
            self._commit_nt(addr, data)
            self.cache.take_dirty(addr)

    def invalidate_line(self, addr: int):
        """Process: drop the cached copy (forcing the next load to fetch).

        Dirty data is written back first (clflush semantics) so local
        modifications are not silently lost: over a down link the
        writeback raises and the line stays cached and dirty.
        """
        yield self.sim.timeout(self.timings.cpu_issue_ns)
        data = self.cache.dirty_line(addr)
        if data is not None:
            self._commit_nt(addr, data)
        self.cache.invalidate(addr)

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
        """Draw one NT store's latency, enter it in the store buffer and
        post its landing."""
        delay, run = self._stage_nt(addr, data)
        self._post_lines(delay, (run,), "nt-drain")

    def _stage_nt(self, addr: int, data: bytes) -> tuple:
        """Draw one NT store's latency and enter it in the store buffer;
        returns ``(delay, run)`` for :meth:`_post_lines`.

        The draw comes first: a store to a down link raises before it
        leaves a store-buffer entry that no landing would ever retire.
        """
        mhd, media, dev, link = self._line_route(addr)
        delay = (self.timings.ddr5_store_ns if link is None
                 else link.store_latency())
        self._store_wid += 1
        wid = self._store_wid
        self._store_buffer[addr] = (wid, data)
        return delay, ((addr,), (data,), (wid,), mhd, media, dev)

    def _post_lines(self, delay: float, runs, name: str) -> None:
        """Land posted runs ``delay`` ns from now.

        A run is ``(bases, lines, wids, mhd, medium, device_addr)``:
        whole 64 B ``lines`` stored on one device run from
        ``device_addr`` on, ``bases`` their addresses in this host's
        view and ``wids`` their store-buffer entries (None for a
        dirty-eviction writeback).  One kernel event, no process, lands
        the runs due at the same instant, in order.
        """
        landing = Timeout(self.sim, delay, value=runs, name=name)
        landing.callbacks.append(self._land_lines)

    def _land_lines(self, landing: Timeout) -> None:
        runs = landing.value
        if len(runs) > 1 and any(medium._watched(dev, len(lines)
                                                 * CACHELINE_BYTES)
                                 for _b, lines, _w, _mhd, medium, dev in runs):
            # Watches fire in address order: land line by line.
            runs = sorted(
                ((base,), (line,), None if wids is None else (wids[k],),
                 mhd, medium, dev + k * CACHELINE_BYTES)
                for bases, lines, wids, mhd, medium, dev in runs
                for k, (base, line) in enumerate(zip(bases, lines)))
        buffer = self._store_buffer
        for bases, lines, wids, mhd, medium, dev in runs:
            if mhd is not None and mhd.failed:
                # Posted write to a device that died in flight: the write
                # is lost (counted), never silently half-applied.
                self.stores_dropped += len(lines)
            else:
                medium.write_lines(dev, lines)
            if wids is not None:
                for base, wid in zip(bases, wids):
                    entry = buffer.get(base)
                    if entry is not None and entry[0] == wid:
                        del buffer[base]

    # -- convenience span operations (CPU, cached) -------------------------------

    def write_span(self, addr: int, data: bytes, nt: bool = False):
        """Process: store an arbitrary span line by line.

        Only whole-line semantics are modeled: partial first/last lines are
        read-modify-written functionally.  With ``nt=True`` every line is
        pushed straight to the device (publish semantics).
        """
        for base in line_range(addr, len(data)):
            # Pay the store cost first; merge partial lines at commit time
            # (in this same resume) so interleaved writers to neighbouring
            # fragments of one cacheline never lose each other's update.
            if nt:
                yield self.sim.timeout(self.timings.cpu_issue_ns)
            else:
                yield self.sim.timeout(
                    self.timings.cpu_issue_ns + self.timings.cache_hit_ns
                )
            line = self._line_of(base, addr, data)
            if nt:
                self.cache.drop_clean(base)
                self._commit_nt(base, bytes(line))
            else:
                self._handle_evictions(self.cache.write(base, line))

    def read_span(self, addr: int, size: int, uncached: bool = False):
        """Process: load an arbitrary span line by line; returns bytes."""
        off = addr % CACHELINE_BYTES
        if uncached and 0 < size <= CACHELINE_BYTES - off:
            # One line: load_line_uncached() inline (ring-slot and CQ
            # polls), with its sample-then-latency order.
            base = addr - off
            buffered = self._store_buffer.get(base)
            line = (buffered[1] if buffered is not None
                    else self._medium_read_line(base))
            yield self.sim.timeout(
                self.timings.cpu_issue_ns + self._miss_latency(base)
            )
            return line[off:off + size]
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

    def _line_of(self, base: int, addr: int, data: bytes) -> bytes:
        """The line at ``base`` once ``data`` is stored at ``addr``: the
        overlapping bytes of ``data``, a partial line merged against this
        host's view (:meth:`_peek_line`)."""
        lo = max(addr, base)
        hi = min(addr + len(data), base + CACHELINE_BYTES)
        if hi - lo == CACHELINE_BYTES:
            return data[lo - addr:hi - addr]
        current = self._peek_line(base)
        return (current[:lo - base] + data[lo - addr:hi - addr]
                + current[hi - base:])

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

    def _stream_time(self, runs) -> float:
        """Pipelined streaming time for a bulk CPU copy over ``runs``."""
        idx, _media, _dev, length = runs[0]
        if idx is None:
            return length / self.timings.ddr5_bandwidth_gbps
        links = self.port.links
        return max(length / links[idx].bandwidth
                   for idx, _media, _dev, length in runs)

    def write_bulk(self, addr: int, data: bytes, nt: bool = False):
        """Process: streaming store of an arbitrary span (memcpy).

        Pays one issue cost plus bandwidth-bound streaming time, then
        commits every line atomically in a single resume.  With
        ``nt=True`` the lines commit one device run at a time (see
        :meth:`_commit_runs`), and the lines that land at the same
        instant land together, in one event.  This is how payload
        buffers are filled; per-line :meth:`write_span` is for small
        control structures.
        """
        size = len(data)
        if size == 0:
            return
        runs = self._extents(addr, size)
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + self._stream_time(runs)
        )
        if not nt:
            for base in line_range(addr, size):
                self._handle_evictions(
                    self.cache.write(base, self._line_of(base, addr, data)))
            return
        data = bytes(data)
        # Landing instant -> (delay, runs).  Keyed on the instant, not
        # the delay: two delays can round to one instant.
        landings: dict[float, tuple[float, list]] = {}
        mhds, links = self.pod.mhds, self.port.links
        try:
            if any(idx is not None and (mhds[idx].failed or not links[idx].up
                                        or links[idx].jitter_ns > 0.0)
                   for idx, _media, _dev, _length in runs):
                # A failed MHD, a down link or a jittered link makes the
                # order across runs observable: commit line by line.
                now = self.sim.now
                for base in line_range(addr, size):
                    line = self._line_of(base, addr, data)
                    self.cache.drop_clean(base)
                    delay, run = self._stage_nt(base, line)
                    _join(landings, now + delay, delay, run)
            else:
                self._commit_runs(landings, addr, data, runs)
        finally:
            # A down link or a dead MHD raises mid-payload: the lines
            # committed before it still land.
            for delay, posted in landings.values():
                self._post_lines(delay, posted, "nt-drain")

    def _commit_runs(self, landings: dict, addr: int, data: bytes,
                     runs: list) -> None:
        """NT-commit a payload over healthy, unjittered ``runs``: one
        cache snoop and one store-buffer update for the payload, then one
        latency draw per run, which joins ``landings`` by landing instant.

        No step can fail over such runs, so the state after it is the
        state the per-line loop (merge, snoop, draw, store-buffer entry,
        line by line) leaves.  Runs join ``landings`` in first-touch
        order, so landing instants appear in the order that loop meets
        them; a landing lands its runs' lines in address order where a
        watch could tell (:meth:`_land_lines`).
        """
        size = len(data)
        lo = line_base(addr)
        stop = addr + size
        whole = stop - stop % CACHELINE_BYTES
        lines = []
        first = lo
        if lo < addr:
            # The span's partial first line.
            lines.append(self._line_of(lo, addr, data))
            first += CACHELINE_BYTES
        lines += [data[pos:pos + CACHELINE_BYTES] for pos in
                  range(first - addr, whole - addr, CACHELINE_BYTES)]
        if first <= whole < stop:
            # The span's partial last line.
            lines.append(self._line_of(whole, addr, data))
        n = len(lines)
        bases = range(lo, lo + n * CACHELINE_BYTES, CACHELINE_BYTES)
        wids = range(self._store_wid + 1, self._store_wid + 1 + n)
        self._store_wid += n
        self.cache.drop_span(addr, size)
        self._store_buffer.update(zip(bases, zip(wids, lines, strict=True),
                                      strict=True))
        mhds, links = self.pod.mhds, self.port.links
        shares = zip(*[self.pod._gather(lo, seq, runs, CACHELINE_BYTES,
                                        _chained)
                       for seq in (bases, lines, wids)], strict=True)
        now = self.sim.now
        for (idx, media, dev, _length), (run_bases, run_lines, run_wids) \
                in zip(runs, shares, strict=True):
            if idx is None:
                mhd, delay = None, self.timings.ddr5_store_ns
            else:
                mhd = mhds[idx]
                delay = links[idx].store_lines(len(run_lines))[0]
            # A run's first line is the span's first line, or starts an
            # interleave block.
            dev -= dev % CACHELINE_BYTES
            _join(landings, now + delay, delay,
                  (run_bases, run_lines, run_wids, mhd, media, dev))

    def read_bulk(self, addr: int, size: int, uncached: bool = False):
        """Process: streaming load of an arbitrary span (memcpy).

        Pays one leading-miss latency plus bandwidth-bound streaming time.
        Data is assembled from this host's coherent view (cache unless
        ``uncached``, store buffer, then device); lines are not installed
        in the cache (streaming semantics).  Each device run is read with
        one media call and this host's lines are laid over the result;
        a span on a failed MHD or with a poisoned line is read line by
        line, so the line that raises is the one the line loop meets
        first.
        """
        if size == 0:
            return b""
        miss = self._miss_latency(addr - addr % CACHELINE_BYTES)
        runs = self._extents(addr, size)
        yield self.sim.timeout(
            self.timings.cpu_issue_ns + miss + self._stream_time(runs)
        )
        mhds = self.pod.mhds
        if any((idx is not None and mhds[idx].failed)
               or media._poisoned(dev, length)
               for idx, media, dev, length in runs):
            buffer = self._store_buffer
            parts = []
            for base in line_range(addr, size):
                if uncached:
                    buffered = buffer.get(base)
                    line = (buffered[1] if buffered is not None
                            else self._medium_read_line(base))
                else:
                    line = self._peek_line(base)
                parts.append(line[max(addr - base, 0):
                                  min(addr + size - base, CACHELINE_BYTES)])
            return b"".join(parts)
        data = self.pod._scatter(addr, [media.read(dev, length)
                                        for _idx, media, dev, length in runs])
        return self._overlay(addr, data, not uncached, dirty_only=False)

    # -- DMA (device-initiated on this host) ---------------------------------------

    def dma_write(self, addr: int, data: bytes):
        """Process: a locally-attached PCIe device writes ``data``.

        Pool-bound spans are split over the host's CXL links at the pod's
        interleave granularity and transferred in parallel.  This host's
        cache is snooped (lines invalidated) like coherent PCIe DMA; remote
        hosts' caches are NOT — the cross-host hazard the design works
        around.
        """
        runs = yield from self._dma(addr, len(data), write=True)
        if runs is None:
            self.port.local_dram.write(addr, data)
        else:
            self.pod._write_runs(addr, data, runs)
        self.cache.drop_span(addr, len(data))

    def dma_read(self, addr: int, size: int):
        """Process: a locally-attached PCIe device reads ``size`` bytes.

        Snoops this host's dirty cache lines (local DMA is coherent) but
        sees only device data for lines dirtied on *other* hosts.
        """
        runs = yield from self._dma(addr, size, write=False)
        if runs is None:
            data = self.port.local_dram.read(addr, size)
        else:
            data = self.pod._read_runs(addr, size, runs)
        return self._overlay(addr, data, True, dirty_only=True)

    def _overlay(self, addr: int, data: bytes, cached: bool,
                 dirty_only: bool) -> bytes:
        """``data``, the span from ``addr``, with this host's own lines
        laid over it: a cached line if ``cached`` (only a dirty one with
        ``dirty_only``), else a store-buffer entry.  Only the span's own
        lines are probed."""
        buffer = self._store_buffer
        held = self.cache._lines if cached else {}
        if not (held or buffer):
            return data
        size = len(data)
        lo = line_base(addr)
        hi = addr + size
        if not (held and _touches(held.keys(), lo, hi)
                or buffer and _touches(buffer.keys(), lo, hi)):
            return data
        out = bytearray(data)
        for base in line_range(addr, size):
            entry = held.get(base)
            if entry is not None and (entry[1] or not dirty_only):
                line = entry[0]
            else:
                buffered = buffer.get(base)
                if buffered is None:
                    continue
                line = buffered[1]
            start = max(addr, base)
            end = min(hi, base + CACHELINE_BYTES)
            out[start - addr:end - addr] = line[start - base:end - base]
        return bytes(out)

    def _dma(self, addr: int, size: int, write: bool):
        """Process: a DMA's transfer time; returns the pool span's device
        runs (:meth:`CxlPod.extents`), or None for local DRAM."""
        if not self._is_pool(addr):
            # Local DRAM: pay DDR bandwidth + store/load latency.
            serialize = size / self.timings.ddr5_bandwidth_gbps
            base_lat = (self.timings.ddr5_store_ns if write
                        else self.timings.ddr5_load_ns)
            yield self.sim.timeout(serialize + base_lat)
            return None
        # Pool: one share per link (one run per MHD), in parallel.
        if size <= 0:
            raise ValueError(f"DMA size must be positive, got {size}")
        runs = self.pod.extents(addr, size)
        done = DmaCompletion(self.sim, len(runs), self.timings, write)
        links = self.port.links
        # Booked in link order; a span's runs are on distinct MHDs.
        for idx, _media, _dev, length in sorted(runs):
            links[idx].book(done, length, write)
        yield done.event
        return runs

    # -- internals ---------------------------------------------------------------

    def _miss_latency(self, addr: int) -> float:
        if self._pool_base <= addr < self._pool_top:
            return self._route_cached(addr)[3].load_latency()
        return self.timings.ddr5_load_ns

    def _handle_evictions(self, evicted: list[tuple[int, bytes]]) -> None:
        # Dirty evictions write back asynchronously (like a real WB cache).
        for addr, data in evicted:
            mhd, media, dev, link = self._line_route(addr)
            try:
                delay = (self.timings.ddr5_store_ns if link is None
                         else link.store_latency())
            except LinkDownError:
                # Evicting a line whose device is gone: the writeback has
                # nowhere to go.  Must not blow up the (unrelated) access
                # that triggered the eviction.
                self.stores_dropped += 1
                continue
            self._post_lines(delay, ((addr, (data,), None, mhd, media, dev),),
                             "evict-wb")

    def __repr__(self) -> str:
        return f"<HostMemorySystem {self.host_id}>"



def _join(landings: dict, at: float, delay: float, run: tuple) -> None:
    """Add a posted run to the group landing at instant ``at``."""
    group = landings.get(at)
    if group is None:
        landings[at] = (delay, [run])
    else:
        group[1].append(run)


def _chained(parts) -> list:
    """One list of the items of ``parts``, in order."""
    return list(chain.from_iterable(parts))
