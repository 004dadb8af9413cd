"""Offload accelerator model (compression / homomorphic-encryption class).

The paper's §5 argues that highly-specialized accelerators — used rarely
but expensive to provision per host — are the best case for soft
disaggregation: deploy a handful per pod (e.g. 1:16 host:device) and let
any host submit jobs through the CXL datapath.

The model is deliberately job-structured: software posts 16 B job
descriptors (input buffer, length; flags select the kernel), the device
DMA-reads the input, computes for ``fixed_ns + bytes / throughput``, and
DMA-writes the transformed output plus a completion entry.  A result
longer than its 4 KiB output slot completes with ``STATUS_ERROR`` and its
size, and nothing is written.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pcie.device import QueuePairDevice
from repro.pcie.rings import CompletionEntry, Descriptor
from repro.sim import Simulator


@dataclass(frozen=True)
class AcceleratorSpec:
    """Static accelerator configuration."""

    #: Fixed kernel-launch latency per job.
    fixed_ns: float = 5_000.0
    #: Processing throughput, bytes/ns (== GB/s).
    throughput_gbps: float = 4.0
    #: Concurrent execution contexts.
    n_contexts: int = 2
    n_desc: int = 128


#: Job kinds selected by the descriptor ``flags`` field.
KERNEL_COMPRESS = 1
KERNEL_DECOMPRESS = 2
KERNEL_FHE_MULT = 3


class Accelerator(QueuePairDevice):
    """A PCIe offload accelerator: jobs on a ring, a context the unit."""

    REG_JOB_DB = QueuePairDevice.REG_DB
    REG_JOB_RING = QueuePairDevice.REG_RING
    REG_OUT_BASE = 0x28   # where results are DMA-written
    #: Bytes of one job's output slot at ``REG_OUT_BASE``.
    OUT_SLOT_BYTES = 4096

    ENTRY_NAME = "job"

    def __init__(self, sim: Simulator, name: str, device_id: int,
                 spec: AcceleratorSpec = AcceleratorSpec()):
        super().__init__(sim, name, device_id, spec.n_desc, spec.n_contexts)
        self.spec = spec
        self.bar.regs[self.REG_OUT_BASE] = 0

    @property
    def jobs_completed(self) -> int:
        return self.completed

    def _run(self, raw: bytes):
        desc = Descriptor.decode(raw)
        spec = self.spec
        data = yield from self.dma_read(desc.addr, desc.length)
        yield self.sim.timeout(spec.fixed_ns
                               + desc.length / spec.throughput_gbps)
        result = self._run_kernel(desc.flags, data)
        if len(result) > self.OUT_SLOT_BYTES:
            # No room in the output slot: report the size, write nothing.
            return CompletionEntry.STATUS_ERROR, len(result), None
        return CompletionEntry.STATUS_OK, len(result), result

    def _write_output(self, index: int, result):
        out_base = self.bar.regs[self.REG_OUT_BASE]
        if out_base and result is not None:
            out_addr = (out_base
                        + (index % self.spec.n_desc) * self.OUT_SLOT_BYTES)
            yield from self.dma_write(out_addr, result)

    @staticmethod
    def _run_kernel(kind: int, data: bytes) -> bytes:
        """Functional stand-ins: real transforms, so outputs are checkable."""
        import zlib

        if kind == KERNEL_COMPRESS:
            return zlib.compress(data, level=1)
        if kind == KERNEL_DECOMPRESS:
            return zlib.decompress(data)
        if kind == KERNEL_FHE_MULT:
            # A deterministic bijective transform standing in for an FHE op.
            return bytes((b * 3 + 7) % 256 for b in data)
        return data
