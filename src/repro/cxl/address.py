"""Physical addressing: cachelines, ranges, and 256 B link interleaving.

CXL transactions operate at 64 B cacheline granularity.  Hosts that attach
to a pool through multiple links interleave consecutive 256 B blocks across
the links (§3), which is how a Granite-Rapids-class socket aggregates
64 lanes into ≈240 GB/s of CXL bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

#: CXL transaction granularity.
CACHELINE_BYTES = 64
#: Hardware interleaving granularity across CXL links.
INTERLEAVE_BYTES = 256


def line_base(addr: int) -> int:
    """Base address of the cacheline containing ``addr``."""
    return addr - (addr % CACHELINE_BYTES)


def line_range(addr: int, size: int) -> range:
    """All cacheline base addresses overlapping ``[addr, addr+size)``."""
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    first = line_base(addr)
    last = line_base(addr + size - 1)
    return range(first, last + CACHELINE_BYTES, CACHELINE_BYTES)


@dataclass(frozen=True)
class AddressRange:
    """A half-open physical address range ``[base, base+size)``."""

    base: int
    size: int

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"negative base address {self.base:#x}")
        if self.size <= 0:
            raise ValueError(f"non-positive range size {self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        """True if ``[addr, addr+size)`` lies entirely inside this range."""
        return self.base <= addr and addr + size <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def offset_of(self, addr: int) -> int:
        """Offset of ``addr`` from the range base (addr must be inside)."""
        if not self.contains(addr):
            raise ValueError(
                f"address {addr:#x} outside range "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def subrange(self, offset: int, size: int) -> "AddressRange":
        """A sub-range at ``offset`` of length ``size``."""
        if offset < 0 or offset + size > self.size:
            raise ValueError(
                f"subrange(offset={offset}, size={size}) exceeds "
                f"range of size {self.size}"
            )
        return AddressRange(self.base + offset, size)

    def __repr__(self) -> str:
        return f"AddressRange({self.base:#x}, size={self.size:#x})"
