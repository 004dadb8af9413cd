"""Pool address-space allocator.

The pool's physical address space is carved into per-host private segments
(ordinary pooled memory, the business case that pays for the pod) and
*shared* segments visible to several hosts — the small fraction the paper
dedicates to I/O buffers and message channels (§4).

The allocator is a first-fit free list with cacheline-aligned allocations,
explicit ownership tracking, and coalescing frees.  Its invariants (no
overlap, free+used == capacity, alignment) are exercised by property-based
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cxl.address import CACHELINE_BYTES, AddressRange


class AllocationError(RuntimeError):
    """Raised when the pool cannot satisfy an allocation."""


@dataclass
class Allocation:
    """A live allocation: its range, owner(s), and purpose label."""

    range: AddressRange
    owners: tuple[str, ...]
    label: str = ""

    @property
    def shared(self) -> bool:
        return len(self.owners) > 1


@dataclass
class _FreeBlock:
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size


class PoolAllocator:
    """First-fit allocator over one contiguous pool address range."""

    def __init__(self, capacity: int):
        if capacity <= 0 or capacity % CACHELINE_BYTES != 0:
            raise ValueError(
                f"capacity must be a positive multiple of "
                f"{CACHELINE_BYTES}, got {capacity}"
            )
        self.capacity = capacity
        self._free: list[_FreeBlock] = [_FreeBlock(0, capacity)]
        self._live: dict[int, Allocation] = {}

    # -- queries ----------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(b.size for b in self._free)

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    @property
    def allocations(self) -> list[Allocation]:
        return [self._live[base] for base in sorted(self._live)]

    def owner_bytes(self, host_id: str) -> int:
        """Bytes allocated to (or shared with) ``host_id``."""
        return sum(
            alloc.range.size
            for alloc in self._live.values()
            if host_id in alloc.owners
        )

    # -- allocate / free ---------------------------------------------------

    def allocate(self, size: int, owners: tuple[str, ...] | list[str],
                 label: str = "") -> Allocation:
        """Allocate ``size`` bytes (rounded up to cachelines).

        Args:
            size: requested bytes; rounded up to a cacheline multiple.
            owners: host ids allowed to touch the range.  More than one
                    owner makes this a *shared* segment.
            label: free-form purpose tag ("rx-buffers", "ring:h0->h1", …).
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if not owners:
            raise ValueError("allocation needs at least one owner")
        size = _round_up(size, CACHELINE_BYTES)
        for idx, block in enumerate(self._free):
            if block.size >= size:
                base = block.base
                if block.size == size:
                    del self._free[idx]
                else:
                    block.base += size
                    block.size -= size
                alloc = Allocation(
                    AddressRange(base, size), tuple(owners), label
                )
                self._live[base] = alloc
                return alloc
        raise AllocationError(
            f"cannot allocate {size} B: {self.free_bytes} B free "
            f"(fragmented into {len(self._free)} blocks)"
        )

    def free(self, alloc: Allocation) -> None:
        """Release an allocation, coalescing adjacent free blocks."""
        base = alloc.range.base
        live = self._live.get(base)
        if live is not alloc:
            raise AllocationError(f"{alloc!r} is not a live allocation")
        del self._live[base]
        self._insert_free(_FreeBlock(base, alloc.range.size))

    def find(self, addr: int) -> Optional[Allocation]:
        """The live allocation containing ``addr``, if any."""
        for alloc in self._live.values():
            if alloc.range.contains(addr):
                return alloc
        return None

    def check_access(self, host_id: str, addr: int, size: int = 1) -> None:
        """Raise PermissionError unless ``host_id`` may touch the span."""
        alloc = self.find(addr)
        if alloc is None or not alloc.range.contains(addr, size):
            raise AllocationError(
                f"access [{addr:#x}, {addr + size:#x}) hits no single "
                "live allocation"
            )
        if host_id not in alloc.owners:
            raise PermissionError(
                f"host {host_id!r} is not an owner of "
                f"{alloc.label or alloc.range}"
            )

    # -- internals ----------------------------------------------------------

    def _insert_free(self, block: _FreeBlock) -> None:
        # Keep the free list address-sorted and coalesced.
        self._free.append(block)
        self._free.sort(key=lambda b: b.base)
        merged: list[_FreeBlock] = []
        for blk in self._free:
            if merged and merged[-1].end == blk.base:
                merged[-1].size += blk.size
            else:
                merged.append(blk)
        self._free = merged

    def __repr__(self) -> str:
        return (
            f"<PoolAllocator used={self.used_bytes}/{self.capacity} "
            f"live={len(self._live)}>"
        )


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple
