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

from itertools import repeat

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

    def _watched(self, addr: int, size: int) -> bool:
        """True if a watch is armed on a line of ``[addr, addr+size)``."""
        return bool(self._watchers) and _touches(
            self._watchers.keys(), line_base(addr), addr + size)

    def _poisoned(self, addr: int, size: int) -> bool:
        """True if a line of ``[addr, addr+size)`` is poisoned."""
        return bool(self.poisoned_lines) and _touches(
            self.poisoned_lines, line_base(addr), addr + size)

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

    # -- runs of lines ----------------------------------------------------
    #
    # Bulk copies, DMAs, posted-store landings and the allocation scrub
    # hand the medium a run of lines in one call.  Poison scrubs, poison
    # checks and watches stay per line and in address order, but each is
    # probed only while its set is non-empty.

    def write_lines(self, addr: int, lines) -> None:
        """Store whole 64 B ``lines`` from ``addr`` (line-aligned) on.

        Each line scrubs its poison, and its watches fire right after it
        is stored, before the next line.
        """
        size = len(lines) * CACHELINE_BYTES
        if addr % CACHELINE_BYTES or addr < 0 or addr + size > self.capacity:
            self._require_aligned(addr)
            self._check(addr, size)
        bases = range(addr, addr + size, CACHELINE_BYTES)
        if not (self._poisoned(addr, size) or self._watched(addr, size)):
            self._lines.update(zip(bases, lines, strict=True))
            return
        for base, line in zip(bases, lines, strict=True):
            if self.poisoned_lines:
                self._scrub(base)
            self._lines[base] = line
            if self._watchers:
                self._changed(base)

    def clear_lines(self, addr: int, size: int) -> None:
        """Zero every line of ``[addr, addr+size)`` (line-aligned ``addr``).

        Management-path scrub used when pool memory is (re)allocated:
        clears poison and drops resident contents, so a recycled region
        can never replay a previous owner's bytes — stale-but-CRC-valid
        ring slots in reused channel memory would otherwise decode as
        fresh messages.  Lines that hold no contents, poison or watch are
        not visited.
        """
        end = addr + size
        if addr % CACHELINE_BYTES or addr < 0 or end > self.capacity:
            self._require_aligned(addr)
            self._check(addr, size)
        bases = range(addr, end, CACHELINE_BYTES)
        lines = self._lines
        if self._poisoned(addr, size) or self._watched(addr, size):
            for base in bases:
                if self.poisoned_lines:
                    self._scrub(base)
                lines.pop(base, None)
                if self._watchers:
                    self._changed(base)
        elif len(lines) * CACHELINE_BYTES < size:
            for base in [base for base in lines if addr <= base < end]:
                del lines[base]
        else:
            for base in bases:
                lines.pop(base, None)

    # -- arbitrary spans (DMA) ----------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``addr`` (any alignment).

        The first poisoned line the span covers raises.
        """
        self._check(addr, size)
        if size <= 0:
            return b""
        first = line_base(addr)
        bases = range(first, addr + size, CACHELINE_BYTES)
        if self._poisoned(addr, size):
            for base in bases:
                self._check_poison(base)
        data = b"".join(map(self._lines.get, bases, repeat(_ZERO_LINE)))
        if len(data) == size:
            return data
        return data[addr - first:addr - first + size]

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr`` (any alignment).

        Partial edge lines merge against the current contents once; a
        partial overwrite of a poisoned line scrubs it, and the stale
        remainder of that line, unreadable anyway, reads as zeros
        afterwards rather than resurrecting corrupt bytes.
        """
        self._check(addr, len(data))
        if not data:
            return
        data = bytes(data)
        end = addr + len(data)
        head = addr % CACHELINE_BYTES
        tail = -end % CACHELINE_BYTES
        if head:
            data = self._merge_base(addr - head)[:head] + data
        if tail:
            data += self._merge_base(end + tail - CACHELINE_BYTES)[-tail:]
        self.write_lines(addr - head, [
            data[pos:pos + CACHELINE_BYTES]
            for pos in range(0, len(data), CACHELINE_BYTES)
        ])

    def _merge_base(self, base: int) -> bytes:
        """What a partial write of the line at ``base`` merges against."""
        if base in self.poisoned_lines:
            return _ZERO_LINE
        return self._lines.get(base, _ZERO_LINE)

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


def _touches(keys, lo: int, hi: int) -> bool:
    """True if a line base in ``keys`` (a set or a dict's keys) lies in
    ``[lo, hi)``, ``lo`` line-aligned; walks the shorter of the two."""
    if len(keys) * CACHELINE_BYTES < hi - lo:
        return any(lo <= key < hi for key in keys)
    return not keys.isdisjoint(range(lo, hi, CACHELINE_BYTES))


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
