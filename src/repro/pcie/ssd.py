"""NVMe-like SSD model: submission/completion queues, flash timing.

The SSD follows the same memory-contract as the NIC: software writes
24 B command descriptors into a submission ring in memory, rings the SQ
doorbell (MMIO), and the device DMA-reads commands, moves data with DMA,
and DMA-writes completion entries.  Placing the rings and data buffers in
CXL pool memory therefore makes the SSD poolable exactly like a NIC —
with more slack, since flash latencies dwarf the CXL overhead.

Flash timing uses a simple but standard model: fixed media latency per
operation class plus transfer time at the device's internal bandwidth,
with a bounded number of parallel channels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.pcie.device import QueuePairDevice
from repro.pcie.rings import CompletionEntry
from repro.sim import Simulator

#: opcode (u8), pad (u8), pad (u16), length (u32), lba (u64), buffer (u64)
_NVME_CMD = struct.Struct("<BBHIQQ")
NVME_COMMAND_BYTES = _NVME_CMD.size  # 24


@dataclass(frozen=True)
class NvmeCommand:
    """One submission-queue entry."""

    OP_READ = 1
    OP_WRITE = 2
    OP_FLUSH = 3

    opcode: int
    length: int
    lba: int
    buffer_addr: int

    def encode(self) -> bytes:
        return _NVME_CMD.pack(self.opcode, 0, 0, self.length,
                              self.lba, self.buffer_addr)

    @classmethod
    def decode(cls, raw: bytes) -> "NvmeCommand":
        opcode, _p1, _p2, length, lba, buffer_addr = _NVME_CMD.unpack(
            raw[:NVME_COMMAND_BYTES]
        )
        return cls(opcode, length, lba, buffer_addr)


@dataclass(frozen=True)
class SsdSpec:
    """Static SSD configuration (datacenter TLC class)."""

    capacity: int = 1 << 38           # 256 GiB of addressable LBA space
    read_latency_ns: float = 60_000.0   # media read
    write_latency_ns: float = 16_000.0  # program into SLC cache
    flush_latency_ns: float = 80_000.0
    internal_bandwidth_gbps: float = 7.0  # bytes/ns
    n_channels: int = 8               # parallel flash channels
    n_sq_entries: int = 256
    block_bytes: int = 4096


class Ssd(QueuePairDevice):
    """An NVMe-like SSD: the SQ is the ring, a flash channel the unit."""

    REG_SQ_DB = QueuePairDevice.REG_DB
    REG_SQ_RING = QueuePairDevice.REG_RING

    ENTRY_BYTES = NVME_COMMAND_BYTES
    ENTRY_NAME = "cmd"

    def __init__(self, sim: Simulator, name: str, device_id: int,
                 spec: SsdSpec = SsdSpec()):
        super().__init__(sim, name, device_id, spec.n_sq_entries,
                         spec.n_channels)
        self.spec = spec
        self._media: dict[int, bytes] = {}  # lba-block -> data
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def commands_completed(self) -> int:
        return self.completed

    def _run(self, raw: bytes):
        cmd = NvmeCommand.decode(raw)
        spec = self.spec
        if cmd.opcode == NvmeCommand.OP_FLUSH:
            yield self.sim.timeout(spec.flush_latency_ns)
            return CompletionEntry.STATUS_OK, cmd.length, None
        if cmd.lba + cmd.length > spec.capacity:
            return CompletionEntry.STATUS_ERROR, cmd.length, None
        # internal_bandwidth is the device total; a command executing on
        # one flash channel moves data at the per-channel share, so the
        # full rate is only reached with channel-parallel command queues.
        per_channel = spec.internal_bandwidth_gbps / spec.n_channels
        transfer_ns = cmd.length / per_channel
        if cmd.opcode == NvmeCommand.OP_READ:
            yield self.sim.timeout(spec.read_latency_ns + transfer_ns)
            data = self._media_read(cmd.lba, cmd.length)
            yield from self.dma_write(cmd.buffer_addr, data)
            self.bytes_read += cmd.length
            return CompletionEntry.STATUS_OK, cmd.length, None
        if cmd.opcode == NvmeCommand.OP_WRITE:
            data = yield from self.dma_read(cmd.buffer_addr, cmd.length)
            yield self.sim.timeout(spec.write_latency_ns + transfer_ns)
            self._media_write(cmd.lba, data)
            self.bytes_written += cmd.length
            return CompletionEntry.STATUS_OK, cmd.length, None
        return CompletionEntry.STATUS_ERROR, cmd.length, None

    # -- flash media (functional) ----------------------------------------------------

    def _media_read(self, lba: int, length: int) -> bytes:
        out = bytearray()
        block = self.spec.block_bytes
        cur = lba
        while len(out) < length:
            base = cur - cur % block
            stored = self._media.get(base, bytes(block))
            off = cur - base
            take = min(block - off, length - len(out))
            out += stored[off:off + take]
            cur += take
        return bytes(out)

    def _media_write(self, lba: int, data: bytes) -> None:
        block = self.spec.block_bytes
        cur = lba
        pos = 0
        while pos < len(data):
            base = cur - cur % block
            stored = bytearray(self._media.get(base, bytes(block)))
            off = cur - base
            take = min(block - off, len(data) - pos)
            stored[off:off + take] = data[pos:pos + take]
            self._media[base] = bytes(stored)
            cur += take
            pos += take
