"""Remote SSD client: drive an SSD attached to another pod host.

Demonstrates §4's device-compatibility claim: the same SQ/CQ protocol the
local NVMe driver uses works across hosts once (i) the queues and data
buffers live in shared CXL pool memory and (ii) the SQ doorbell is
forwarded over a ring channel.  Flash latency (tens of µs) dwarfs both the
CXL access premium and the ~600 ns doorbell forwarding cost, which is why
the paper treats SSDs as the easy case.

Journaling, hedging and mid-I/O failover (§4.2) are the pooled
queue-pair protocol of :mod:`repro.datapath.queue_client`: callers
blocked inside :meth:`~RemoteSsdClient.write` or
:meth:`~RemoteSsdClient.read` never see an owner handover.
"""

from __future__ import annotations

from repro.cxl.params import HEDGE_DEADLINE_NS
from repro.datapath.queue_client import PooledQueueClient
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.obs.trace import add_phase_ns
from repro.pcie.rings import COMPLETION_BYTES, CompletionEntry
from repro.pcie.ssd import NVME_COMMAND_BYTES, NvmeCommand, Ssd


class RemoteSsdClient(PooledQueueClient):
    """Block-level read/write against a pooled SSD."""

    KIND = "vssd"
    ENTRY_BYTES = NVME_COMMAND_BYTES
    CQ_POLL_NS = 2_000.0
    WAITER_STEM = "cmd"
    METRIC_FAILOVERS = _names.VSSD_FAILOVERS
    METRIC_RESUBMITTED = _names.VSSD_RESUBMITTED
    METRIC_FENCE_KICKS = _names.VSSD_FENCE_KICKS
    METRIC_HEDGES = _names.VSSD_HEDGES
    METRIC_OP_TIMEOUTS = _names.VSSD_OP_TIMEOUTS

    def __init__(self, sim, memsys, handle, pod, owner_host: str,
                 n_entries: int = 64, max_io_bytes: int = 128 << 10,
                 name: str = "vssd",
                 op_timeout_ns: float = 200_000_000.0,
                 hedge_deadline_ns: float = HEDGE_DEADLINE_NS,
                 budget=None, pacer=None):
        self.max_io_bytes = max_io_bytes
        super().__init__(sim, memsys, handle, pod, owner_host, n_entries,
                         name, op_timeout_ns, hedge_deadline_ns, budget,
                         pacer)

    def _alloc_regions(self, suffix: str) -> None:
        self.sq_base = self.mem.alloc(
            self.n_entries * NVME_COMMAND_BYTES, f"sq{suffix}")
        self.cq_base = self.mem.alloc(
            self.n_entries * COMPLETION_BYTES, f"cq{suffix}")
        self.buf_base = self.mem.alloc(
            self.n_entries * self.max_io_bytes, f"buffers{suffix}")

    def _noop_entry(self) -> NvmeCommand:
        # A reserved opcode: the SSD completes it as STATUS_ERROR
        # without touching media.
        return NvmeCommand(0, 0, lba=0, buffer_addr=0)

    def setup(self):
        """Process: reset the SSD's queue state and point its queue
        registers at our pool queues (what a driver does on takeover)."""
        yield from self.handle.write_register(Ssd.REG_RESET, 1)
        yield from self.handle.write_register(Ssd.REG_SQ_RING, self.sq_base)
        yield from self.handle.write_register(Ssd.REG_CQ_RING, self.cq_base)
        self._configured = True

    # -- block I/O -----------------------------------------------------------

    def write(self, lba: int, data: bytes):
        """Process: write ``data`` at ``lba``; returns completion status.

        Safe to call from multiple processes concurrently: each command
        gets its own buffer slot and completions are matched by index.
        """
        self._check_size(len(data))
        span = _obs.TRACER.begin(
            "vssd.write", self.sim.now, track=self._track, cat="io",
            args={"lba": lba, "bytes": len(data)},
        )
        try:
            index, paced = yield from self._pace_and_reserve(span)
            buf = self._buffer(index)
            yield from self._stage(span, index, buf, data, paced)
            comp, _op = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_WRITE, len(data), lba=lba, buffer_addr=buf,
            ), span, paced)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return comp.status

    def write_burst(self, ios):
        """Process: submit several writes, ringing the doorbell once.

        ``ios`` is a sequence of ``(lba, data)`` pairs; returns their
        completion statuses in submission order.  All data buffers and
        SQ entries are written first, then one fence orders the batch
        and one forwarded doorbell exposes every command — exactly how a
        real NVMe driver submits a queue-depth burst.  The batch must
        fit the free SQ depth, checked before anything is reserved.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        ios = list(ios)
        for _lba, data in ios:
            self._check_size(len(data))
        if not ios:
            return []
        span = _obs.TRACER.begin(
            "vssd.write_burst", self.sim.now, track=self._track, cat="io",
            args={"n": len(ios)},
        )
        try:
            # Window slots for the whole batch are claimed up front, so
            # none of it is journaled (or even depth-checked) while the
            # pod is pushing back.
            first, paced = yield from self._pace_and_reserve(span, len(ios))
            staged = []
            for offset, (lba, data) in enumerate(ios):
                buf = self._buffer(first + offset)
                staged.append((buf, data, NvmeCommand(
                    NvmeCommand.OP_WRITE, len(data),
                    lba=lba, buffer_addr=buf,
                )))
            ops = yield from self._submit_burst(first, staged, span, paced)
            statuses = []
            t_device = self.sim.now
            for op in ops:
                comp = yield op.waiter
                statuses.append(comp.status)
            add_phase_ns(span, "ph_device_ns", self.sim.now - t_device)
            return statuses
        finally:
            _obs.TRACER.end(span, self.sim.now)

    def read(self, lba: int, length: int):
        """Process: read ``length`` bytes at ``lba``; returns the bytes."""
        self._check_size(length)
        span = _obs.TRACER.begin(
            "vssd.read", self.sim.now, track=self._track, cat="io",
            args={"lba": lba, "bytes": length},
        )
        try:
            index, paced = yield from self._pace_and_reserve(span)
            buf = self._buffer(index)
            comp, _op = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_READ, length, lba=lba, buffer_addr=buf,
            ), span, paced)
            if comp.status != CompletionEntry.STATUS_OK:
                raise IOError(
                    f"{self.name}: read failed (status={comp.status})"
                )
            t_link = self.sim.now
            data = yield from self.mem.read(buf, length)
            add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return data

    def flush(self):
        """Process: durability barrier."""
        span = _obs.TRACER.begin(
            "vssd.flush", self.sim.now, track=self._track, cat="io",
        )
        try:
            index, paced = yield from self._pace_and_reserve(span)
            comp, _op = yield from self._submit(index, NvmeCommand(
                NvmeCommand.OP_FLUSH, 0, lba=0, buffer_addr=0,
            ), span, paced)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return comp.status

    # -- internals -----------------------------------------------------------

    def _check_size(self, nbytes: int) -> None:
        if nbytes > self.max_io_bytes:
            raise ValueError(
                f"I/O of {nbytes} B exceeds max {self.max_io_bytes} B"
            )

    def _buffer(self, index: int) -> int:
        return self.buf_base + (index % self.n_entries) * self.max_io_bytes
