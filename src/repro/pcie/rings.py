"""In-memory descriptor rings and completion queues.

These are the data structures the datapath places in memory — local DRAM
in the conventional case, shared CXL pool memory in the paper's design —
and that devices access with DMA:

* a **descriptor ring** holds fixed 16 B descriptors pointing at I/O
  buffers (software writes them, the device DMA-reads them);
* a **completion queue** holds fixed 16 B entries the device DMA-writes
  when work finishes (software polls them).

Completion entries carry an NVMe-style sequence tag so pollers can
distinguish a fresh entry from a stale one left over from the previous
pass around the ring — the same trick the ring channel uses, and the
property that makes *cross-host* completion polling over non-coherent CXL
memory possible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: addr (u64), length (u32), flags (u32)
_DESC = struct.Struct("<QII")
#: seq (u8), status (u8), index (u16), length (u32), value (u64)
_COMP = struct.Struct("<BBHIQ")
#: A completion's ``index`` is the submission index modulo this (u16).
INDEX_SPACE = 1 << 16

DESCRIPTOR_BYTES = _DESC.size    # 16
COMPLETION_BYTES = _COMP.size    # 16
_SEQ_PERIOD = 250


@dataclass(frozen=True)
class Descriptor:
    """One I/O descriptor: a buffer address, a length, and flags."""

    addr: int
    length: int
    flags: int = 0

    def encode(self) -> bytes:
        return _DESC.pack(self.addr, self.length, self.flags)

    @classmethod
    def decode(cls, raw: bytes) -> "Descriptor":
        addr, length, flags = _DESC.unpack(raw[:DESCRIPTOR_BYTES])
        return cls(addr, length, flags)


@dataclass(frozen=True)
class CompletionEntry:
    """One completion: which descriptor finished, with what outcome."""

    seq: int
    status: int
    index: int
    length: int
    value: int = 0

    STATUS_OK = 0
    STATUS_ERROR = 1

    def encode(self) -> bytes:
        return _COMP.pack(self.seq, self.status, self.index,
                          self.length, self.value)

    @classmethod
    def decode(cls, raw: bytes) -> "CompletionEntry":
        seq, status, index, length, value = _COMP.unpack(
            raw[:COMPLETION_BYTES]
        )
        return cls(seq, status, index, length, value)


def seq_for_pass(pass_number: int) -> int:
    """Sequence tag for a given trip around the ring (0 = never written)."""
    return 1 + pass_number % _SEQ_PERIOD


class DescriptorRing:
    """Geometry of a descriptor ring living at ``base_addr`` in memory."""

    def __init__(self, base_addr: int, n_entries: int,
                 entry_bytes: int = DESCRIPTOR_BYTES):
        if n_entries < 1:
            raise ValueError(f"ring needs >= 1 entry, got {n_entries}")
        self.base_addr = base_addr
        self.n_entries = n_entries
        self.entry_bytes = entry_bytes

    def entry_addr(self, index: int) -> int:
        """Memory address of logical entry ``index`` (wraps modulo size)."""
        return self.base_addr + (index % self.n_entries) * self.entry_bytes

    @property
    def size_bytes(self) -> int:
        return self.n_entries * self.entry_bytes

    def seq_of(self, index: int) -> int:
        """Expected sequence tag for logical index ``index``."""
        return seq_for_pass(index // self.n_entries)

    def __repr__(self) -> str:
        return (
            f"<DescriptorRing @{self.base_addr:#x} x{self.n_entries} "
            f"entries of {self.entry_bytes}B>"
        )
