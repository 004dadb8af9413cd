"""Memory device models: CXL pool devices and host-local DDR5 DRAM.

Devices store real bytes at cacheline granularity, so the functional
behaviour of the datapath (what a DMA engine reads, what a remote CPU
observes, whether stale data leaks) is testable, not just its timing.
Unwritten lines read as zeros, like real DRAM after scrubbing.

Memory RAS: a line can be *poisoned* (uncorrectable ECC error).  Reading
a poisoned line raises :class:`PoisonedMemoryError` — the media never
hands out silently-corrupt bytes, matching CXL's poison-on-read
semantics.  Any full or partial write to a poisoned line scrubs it
(overwrite-to-clear), and every transition is counted so RAS soaks can
prove the accounting identity ``injected == scrubbed + resident``.

A parked poller can watch a line (:meth:`MemoryMedium.watch_line`)
instead of re-reading it: the watch fires once, at the line's next
write, clear or poison.
"""

from __future__ import annotations

from repro.cxl.address import CACHELINE_BYTES, AddressRange, line_base
from repro.sim.errors import SimError

_ZERO_LINE = bytes(CACHELINE_BYTES)


class PoisonedMemoryError(SimError):
    """Raised when a read touches a poisoned (uncorrectable) cacheline."""

    def __init__(self, medium: "MemoryMedium", addr: int):
        super().__init__(
            f"{medium.name}: poisoned line at device address {addr:#x}"
        )
        self.medium = medium
        self.addr = addr


class MemoryMedium:
    """Shared functional behaviour of byte-addressable memory devices."""

    def __init__(self, capacity: int, name: str):
        if capacity <= 0 or capacity % CACHELINE_BYTES != 0:
            raise ValueError(
                f"capacity must be a positive multiple of "
                f"{CACHELINE_BYTES}, got {capacity}"
            )
        self.capacity = capacity
        self.name = name
        self._lines: dict[int, bytes] = {}
        #: Line-base addresses whose contents are uncorrectably corrupt.
        self.poisoned_lines: set[int] = set()
        # RAS telemetry.
        self.poisons_injected = 0
        self.poison_reads = 0
        self.poisons_scrubbed = 0
        #: One-shot watches: line base -> callbacks run at the line's next
        #: write, clear or poison (see :meth:`watch_line`).
        self._watchers: dict[int, list] = {}

    # -- watches ----------------------------------------------------------

    def watch_line(self, addr: int, fn) -> None:
        """Run ``fn()`` once, at the next write, clear or poison of the
        line at ``addr`` (line-aligned), in the step that makes it."""
        self._watchers.setdefault(addr, []).append(fn)

    def unwatch_line(self, addr: int, fn) -> None:
        """Withdraw a watch that has not fired (no-op if it has)."""
        fns = self._watchers.get(addr)
        if fns is not None and fn in fns:
            fns.remove(fn)
            if not fns:
                del self._watchers[addr]

    def _changed(self, base: int) -> None:
        fns = self._watchers.pop(base, None)
        if fns is not None:
            for fn in fns:
                fn()

    # -- RAS: poison ------------------------------------------------------

    def poison(self, addr: int) -> None:
        """Mark the line containing ``addr`` as uncorrectably corrupt."""
        base = line_base(addr)
        self._check(base)
        if base not in self.poisoned_lines:
            self.poisoned_lines.add(base)
            self.poisons_injected += 1
        if self._watchers:
            self._changed(base)

    def _scrub(self, base: int) -> None:
        """A write to a poisoned line clears the poison (overwrite-to-clear)."""
        if base in self.poisoned_lines:
            self.poisoned_lines.discard(base)
            self.poisons_scrubbed += 1

    def _check_poison(self, base: int) -> None:
        if base in self.poisoned_lines:
            self.poison_reads += 1
            raise PoisonedMemoryError(self, base)

    def _check(self, addr: int, size: int = CACHELINE_BYTES) -> None:
        if addr < 0 or addr + size > self.capacity:
            raise ValueError(
                f"{self.name}: access [{addr:#x}, {addr + size:#x}) "
                f"outside capacity {self.capacity:#x}"
            )

    # -- line granularity -------------------------------------------------

    def read_line(self, addr: int) -> bytes:
        """Read the 64 B cacheline at ``addr`` (must be line-aligned)."""
        # Hot path (pollers re-read the same line at ns cadence): one
        # arithmetic guard, and the poison set is only probed when any
        # poison exists at all — the helpers run only to raise nicely.
        if addr % CACHELINE_BYTES or addr < 0 \
                or addr + CACHELINE_BYTES > self.capacity:
            self._require_aligned(addr)
            self._check(addr)
        if self.poisoned_lines:
            self._check_poison(addr)
        return self._lines.get(addr, _ZERO_LINE)

    def peek_line(self, addr: int) -> bytes | None:
        """The line at ``addr`` (line-aligned) with no side effect and
        no counter moved; None where :meth:`read_line` would raise."""
        if addr in self.poisoned_lines:
            return None
        return self._lines.get(addr, _ZERO_LINE)

    def clear_line(self, addr: int) -> None:
        """Zero the 64 B cacheline at ``addr`` (must be line-aligned).

        Management-path scrub used when pool memory is (re)allocated:
        clears poison and drops resident contents, so a recycled region
        can never replay a previous owner's bytes — stale-but-CRC-valid
        ring slots in reused channel memory would otherwise decode as
        fresh messages.
        """
        # Hot path (every line of every allocation is scrubbed): one
        # arithmetic guard, as in read_line, and the poison set and the
        # watches are only probed when they are non-empty.
        if addr % CACHELINE_BYTES or addr < 0 \
                or addr + CACHELINE_BYTES > self.capacity:
            self._require_aligned(addr)
            self._check(addr)
        if self.poisoned_lines:
            self._scrub(addr)
        self._lines.pop(addr, None)
        if self._watchers:
            self._changed(addr)

    def write_line(self, addr: int, data: bytes) -> None:
        """Write a full 64 B cacheline at ``addr``."""
        if addr % CACHELINE_BYTES or addr < 0 \
                or addr + CACHELINE_BYTES > self.capacity:
            self._require_aligned(addr)
            self._check(addr)
        if len(data) != CACHELINE_BYTES:
            raise ValueError(
                f"line write must be {CACHELINE_BYTES} B, got {len(data)}"
            )
        if self.poisoned_lines:
            self._scrub(addr)
        self._lines[addr] = bytes(data)
        if self._watchers:
            self._changed(addr)

    # -- arbitrary spans (DMA) ----------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr`` (any alignment)."""
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

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (any alignment)."""
        self._check(addr, len(data))
        watchers = self._watchers
        cur = addr
        pos = 0
        while pos < len(data):
            base = line_base(cur)
            off = cur - base
            take = min(CACHELINE_BYTES - off, len(data) - pos)
            # A partial overwrite of a poisoned line scrubs it: the stale
            # remainder of the line was unreadable anyway, so it reads as
            # zeros afterwards rather than resurrecting corrupt bytes.
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

    @staticmethod
    def _require_aligned(addr: int) -> None:
        if addr % CACHELINE_BYTES != 0:
            raise ValueError(
                f"address {addr:#x} is not {CACHELINE_BYTES} B aligned"
            )

    @property
    def resident_bytes(self) -> int:
        """Bytes of lines that have ever been written (for tests)."""
        return len(self._lines) * CACHELINE_BYTES

    @property
    def poisoned_resident(self) -> int:
        """Lines currently poisoned (injected and not yet scrubbed)."""
        return len(self.poisoned_lines)


class CxlMemoryDevice(MemoryMedium):
    """One CXL memory device (the media behind one or more CXL ports)."""

    def __init__(self, capacity: int, name: str = "cxl-mem"):
        super().__init__(capacity, name)
        self.range = AddressRange(0, capacity)

    def __repr__(self) -> str:
        return f"<CxlMemoryDevice {self.name!r} {self.capacity >> 30}GiB>"


class LocalDram(MemoryMedium):
    """Host-local DDR5 DRAM (private to one host, never shared)."""

    def __init__(self, capacity: int, host_id: str):
        super().__init__(capacity, f"dram:{host_id}")
        self.host_id = host_id

    def __repr__(self) -> str:
        return f"<LocalDram host={self.host_id} {self.capacity >> 30}GiB>"
