"""Write-back CPU cache model.

The pool devices available today have **no cross-host hardware coherence**
(§3): if host A caches a pool line and host B (or a DMA engine on B)
rewrites it, A's cache happily serves the stale copy.  This module models
exactly enough cache behaviour to make that hazard — and the software
discipline that avoids it — *functionally observable* in tests and
ablations:

* normal stores dirty the line in the cache and are invisible to the pool
  until written back (or evicted);
* normal loads hit cached (possibly stale) lines;
* non-temporal stores and explicit flushes push data to the device;
* uncached loads bypass the cache.

The cache is purely functional; access *timing* is applied by
:class:`repro.cxl.memsys.HostMemorySystem`, which knows the link latencies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.cxl.address import CACHELINE_BYTES, line_range

#: Default capacity: 32 Ki lines = 2 MiB, an L2-ish working set.
DEFAULT_CACHE_LINES = 32 * 1024


class CpuCache:
    """An LRU write-back cache of 64 B lines for one host."""

    def __init__(self, host_id: str, capacity_lines: int = DEFAULT_CACHE_LINES):
        if capacity_lines < 1:
            raise ValueError(
                f"cache needs at least one line, got {capacity_lines}"
            )
        self.host_id = host_id
        self.capacity_lines = capacity_lines
        # line_addr -> (data, dirty); OrderedDict gives LRU order.
        self._lines: "OrderedDict[int, tuple[bytes, bool]]" = OrderedDict()
        # Telemetry.
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, addr: int) -> bool:
        return addr in self._lines

    # -- functional operations ---------------------------------------------

    def lookup(self, addr: int) -> Optional[bytes]:
        """Return the cached line at ``addr`` (refreshing LRU), or None."""
        self._require_aligned(addr)
        entry = self._lines.get(addr)
        if entry is None:
            self.misses += 1
            return None
        self._lines.move_to_end(addr)
        self.hits += 1
        return entry[0]

    def is_dirty(self, addr: int) -> bool:
        entry = self._lines.get(addr)
        return entry is not None and entry[1]

    def fill(self, addr: int, data: bytes) -> list[tuple[int, bytes]]:
        """Install a clean line fetched from memory; returns dirty evictions."""
        self._require_line(addr, data)
        self._lines[addr] = (bytes(data), False)
        self._lines.move_to_end(addr)
        return self._evict_overflow()

    def write(self, addr: int, data: bytes) -> list[tuple[int, bytes]]:
        """A normal (temporal) store: dirty the line *in cache only*.

        The pool device does not see this data until :meth:`take_dirty`
        (flush), eviction write-back, or a later NT rewrite — this is the
        staleness hazard the paper's software coherence must handle.
        """
        self._require_line(addr, data)
        self._lines[addr] = (bytes(data), True)
        self._lines.move_to_end(addr)
        return self._evict_overflow()

    def take_dirty(self, addr: int) -> Optional[bytes]:
        """Clean the line for write-back (clwb): return data if dirty."""
        self._require_aligned(addr)
        entry = self._lines.get(addr)
        if entry is None or not entry[1]:
            return None
        data = entry[0]
        self._lines[addr] = (data, False)
        self.writebacks += 1
        return data

    def invalidate(self, addr: int) -> Optional[bytes]:
        """Drop the line (clflush-style); returns dirty data needing
        write-back, or None if the line was absent or clean."""
        self._require_aligned(addr)
        entry = self._lines.pop(addr, None)
        if entry is not None and entry[1]:
            self.writebacks += 1
            return entry[0]
        return None

    def dirty_line(self, addr: int) -> Optional[bytes]:
        """The line's data if it is dirty, else None (no LRU refresh, no
        counter moved)."""
        self._require_aligned(addr)
        entry = self._lines.get(addr)
        if entry is None or not entry[1]:
            return None
        return entry[0]

    def drop_clean(self, addr: int) -> None:
        """Invalidate without write-back (used on NT-store snoops)."""
        self._require_aligned(addr)
        self._lines.pop(addr, None)

    def drop_span(self, addr: int, size: int) -> None:
        """Invalidate without write-back every line overlapping
        ``[addr, addr+size)`` (DMA-write and bulk NT-store snoops)."""
        bases = line_range(addr, size)
        if self.holds_any(bases):
            for base in bases:
                self._lines.pop(base, None)

    def holds_any(self, bases) -> bool:
        """True if any line base in ``bases`` is cached."""
        return bool(self._lines) and not self._lines.keys().isdisjoint(bases)

    def clear(self) -> list[tuple[int, bytes]]:
        """Drop everything; returns dirty lines needing write-back."""
        dirty = [(a, d) for a, (d, flag) in self._lines.items() if flag]
        self._lines.clear()
        self.writebacks += len(dirty)
        return dirty

    # -- internals ------------------------------------------------------------

    def _evict_overflow(self) -> list[tuple[int, bytes]]:
        evicted: list[tuple[int, bytes]] = []
        while len(self._lines) > self.capacity_lines:
            addr, (data, dirty) = self._lines.popitem(last=False)
            if dirty:
                self.writebacks += 1
                evicted.append((addr, data))
        return evicted

    @staticmethod
    def _require_aligned(addr: int) -> None:
        if addr % CACHELINE_BYTES != 0:
            raise ValueError(
                f"address {addr:#x} is not {CACHELINE_BYTES} B aligned"
            )

    @classmethod
    def _require_line(cls, addr: int, data: bytes) -> None:
        cls._require_aligned(addr)
        if len(data) != CACHELINE_BYTES:
            raise ValueError(
                f"expected a {CACHELINE_BYTES} B line, got {len(data)} B"
            )

    def __repr__(self) -> str:
        return (
            f"<CpuCache host={self.host_id} lines={len(self._lines)}"
            f"/{self.capacity_lines} hits={self.hits} misses={self.misses}>"
        )
