"""Base PCIe device: BAR registers, MMIO, DMA plumbing, health state.

The contract every concrete device (NIC, SSD, accelerator) inherits:

* **MMIO** — 8 B register reads/writes into the device's BAR.  Posted
  writes cost a few hundred ns; reads are split transactions costing
  nearly a microsecond round trip.  Only the physically-attached host's
  memory system is wired to the device, so remote hosts cannot call these
  directly — they must forward through a ring channel (the whole point of
  §4.1's host-to-host communication mechanism).
* **DMA** — the device moves bytes via the attached host's
  :class:`~repro.cxl.memsys.HostMemorySystem`, so targets in local DRAM
  and in the CXL pool both work, each with its own timing.  A DMA that
  meets a down CXL link is replayed, like a PCIe replay, until the link
  comes back or the replay budget runs out.
* **Health** — devices can be failed (fault injection) and reset; MMIO
  against a failed device raises :class:`DeviceFailedError`, which is how
  agents detect failures.

:class:`QueuePairDevice` adds the one queue engine the SSD and the
accelerator share: a submission ring, a doorbell, parallel execution
units and a completion queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cxl.link import LinkDownError
from repro.cxl.memsys import HostMemorySystem
from repro.pcie.rings import (
    COMPLETION_BYTES,
    DESCRIPTOR_BYTES,
    INDEX_SPACE,
    CompletionEntry,
    DescriptorRing,
)
from repro.sim import Interrupt, Resource, Simulator, Store

#: PCIe MMIO posted-write latency (host -> device BAR), ns.
MMIO_WRITE_NS = 200.0
#: PCIe MMIO read round-trip latency, ns.
MMIO_READ_NS = 900.0


class DeviceFailedError(RuntimeError):
    """Raised on operations against a failed device."""

    def __init__(self, device: "PcieDevice"):
        super().__init__(f"device {device.name} has failed")
        self.device = device


class MmioDecodeError(RuntimeError):
    """Raised when an MMIO access hits no register."""


@dataclass
class Registers:
    """A sparse 8-B-register BAR."""

    regs: dict[int, int]

    def read(self, offset: int) -> int:
        if offset not in self.regs:
            raise MmioDecodeError(f"no register at BAR offset {offset:#x}")
        return self.regs[offset]

    def write(self, offset: int, value: int) -> None:
        if offset not in self.regs:
            raise MmioDecodeError(f"no register at BAR offset {offset:#x}")
        self.regs[offset] = value


class PcieDevice:
    """Common machinery for PCIe devices."""

    #: BAR offsets shared by all devices.
    REG_STATUS = 0x00
    REG_RESET = 0x08

    STATUS_OK = 1
    STATUS_FAILED = 0

    #: A DMA that meets a down link is replayed at this cadence, up to
    #: this many times, instead of failing: rings and buffers may live
    #: in pool memory behind a flapping CXL link.
    LINK_RETRY_NS = 100_000.0
    LINK_RETRY_LIMIT = 200

    def __init__(self, sim: Simulator, name: str, device_id: int):
        self.sim = sim
        self.name = name
        self.device_id = device_id
        self.bar = Registers({self.REG_STATUS: self.STATUS_OK,
                              self.REG_RESET: 0})
        self._host: Optional[HostMemorySystem] = None
        self.failed = False
        # Telemetry.
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.dma_bytes = 0
        self.dma_link_retries = 0
        self.failures = 0
        self.repairs = 0
        self.failed_at_ns: Optional[float] = None
        self.downtime_ns = 0.0

    # -- attachment ---------------------------------------------------------

    def attach(self, host: HostMemorySystem) -> None:
        """Physically attach this device to ``host``'s PCIe root complex."""
        if self._host is not None:
            raise RuntimeError(
                f"{self.name} is already attached to {self._host.host_id}"
            )
        self._host = host

    def detach(self) -> None:
        self._host = None

    @property
    def host(self) -> HostMemorySystem:
        if self._host is None:
            raise RuntimeError(f"{self.name} is not attached to any host")
        return self._host

    @property
    def attached_host_id(self) -> Optional[str]:
        return self._host.host_id if self._host else None

    # -- health ---------------------------------------------------------------

    def fail(self) -> None:
        """Fault injection: the device stops responding."""
        if not self.failed:
            self.failures += 1
            self.failed_at_ns = self.sim.now
        self.failed = True
        self.bar.regs[self.REG_STATUS] = self.STATUS_FAILED

    def repair(self) -> None:
        """Bring the device back (e.g. after physical replacement)."""
        if self.failed:
            self.repairs += 1
            if self.failed_at_ns is not None:
                self.downtime_ns += self.sim.now - self.failed_at_ns
            self.failed_at_ns = None
        self.failed = False
        self.bar.regs[self.REG_STATUS] = self.STATUS_OK
        self.on_reset()

    def _check_alive(self) -> None:
        if self.failed:
            raise DeviceFailedError(self)

    # -- MMIO (attached host only) -----------------------------------------------

    def mmio_read(self, offset: int):
        """Process: read a BAR register (split transaction, ~1 us)."""
        yield self.sim.timeout(MMIO_READ_NS)
        self._check_alive()
        self.mmio_reads += 1
        return self.bar.read(offset)

    def mmio_write(self, offset: int, value: int):
        """Process: posted write to a BAR register (~200 ns).

        Register side effects (doorbells!) run via :meth:`on_mmio_write`
        after the write lands.
        """
        yield self.sim.timeout(MMIO_WRITE_NS)
        self._check_alive()
        self.mmio_writes += 1
        self.bar.write(offset, value)
        self.on_mmio_write(offset, value)

    # -- DMA helpers (device-initiated, via the attached host) ---------------------

    def dma_read(self, addr: int, size: int):
        """Process: DMA-read ``size`` bytes from host/pool memory."""
        data = yield from self._dma(HostMemorySystem.dma_read, addr, size)
        self.dma_bytes += size
        return data

    def dma_write(self, addr: int, data: bytes):
        """Process: DMA-write ``data`` to host/pool memory."""
        yield from self._dma(HostMemorySystem.dma_write, addr, data)
        self.dma_bytes += len(data)

    def _dma(self, transfer, addr: int, arg):
        """Process: run ``transfer(host, addr, arg)`` on a live device,
        replayed across a down link (see ``LINK_RETRY_NS``)."""
        attempts = 0
        while True:
            self._check_alive()
            try:
                return (yield from transfer(self.host, addr, arg))
            except LinkDownError:
                attempts += 1
                if attempts > self.LINK_RETRY_LIMIT:
                    raise
                self.dma_link_retries += 1
                yield self.sim.timeout(self.LINK_RETRY_NS)

    # -- subclass hooks -------------------------------------------------------------

    def on_mmio_write(self, offset: int, value: int) -> None:
        """Side effects of register writes (override in subclasses)."""
        if offset == self.REG_RESET and value:
            self.bar.regs[self.REG_RESET] = 0
            self.on_reset()

    def on_reset(self) -> None:
        """Device-specific reset behaviour (override in subclasses)."""

    def utilization(self) -> float:
        """Fraction of capacity in use (override; used by the orchestrator)."""
        return 0.0

    def doorbell_register(self, queue_id: int) -> int:
        """BAR offset of the doorbell for ``queue_id`` (override).

        Lets a forwarded :class:`~repro.channel.messages.Doorbell` message
        be applied generically to any device type.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no doorbell for queue {queue_id}"
        )

    def __repr__(self) -> str:
        host = self.attached_host_id or "unattached"
        state = "FAILED" if self.failed else "ok"
        return f"<{type(self).__name__} {self.name!r} @{host} {state}>"


class QueuePairDevice(PcieDevice):
    """A device driven through one submission ring and one completion queue.

    Software writes entries into the ring at ``REG_RING`` and writes the
    new tail to the doorbell ``REG_DB``.  The engine DMA-reads each new
    entry and runs it on one of ``n_units`` parallel units (flash
    channels, compute contexts); when the unit is released the device
    writes the entry's output, if it has one, then DMA-writes a 16 B
    completion to the queue at ``REG_CQ_RING``.  An entry whose device
    fails while it runs is dropped and counted in ``dropped``, as the
    NIC drops a frame: the borrower resubmits it on the device the
    orchestrator fails over to.  A subclass gives its entry size,
    :meth:`_run` and, optionally, :meth:`_write_output`.
    """

    REG_DB = 0x10
    REG_RING = 0x18
    REG_CQ_RING = 0x20

    #: Bytes of one submission-ring entry.
    ENTRY_BYTES = DESCRIPTOR_BYTES
    #: Process name of one executing entry: ``<name>.<ENTRY_NAME><index>``.
    ENTRY_NAME: str

    def __init__(self, sim: Simulator, name: str, device_id: int,
                 n_entries: int, n_units: int):
        super().__init__(sim, name, device_id)
        for reg in (self.REG_DB, self.REG_RING, self.REG_CQ_RING):
            self.bar.regs[reg] = 0
        self.n_entries = n_entries
        self.n_units = n_units
        self._doorbells = Store(sim, name=f"{name}.db")
        self._units = Resource(sim, capacity=n_units, name=f"{name}.units")
        self._head = 0
        self._cq_index = 0
        self._engine = None
        self.completed = 0
        self.dropped = 0
        self._busy_ns = 0.0
        self._util_window_start = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._engine is not None:
            raise RuntimeError(f"{self.name} already started")
        self._engine = self.sim.spawn(
            self._engine_loop(), name=f"{self.name}.engine"
        )

    def stop(self) -> None:
        if self._engine is not None and self._engine.is_alive:
            self._engine.interrupt(cause=f"{self.name} stopped")
        self._engine = None

    def on_mmio_write(self, offset: int, value: int) -> None:
        super().on_mmio_write(offset, value)
        if offset == self.REG_DB:
            self._doorbells.put(value)

    def on_reset(self) -> None:
        self._head = 0
        self._cq_index = 0

    def doorbell_register(self, queue_id: int) -> int:
        if queue_id == 0:
            return self.REG_DB
        raise ValueError(f"{type(self).__name__} has no queue {queue_id}")

    # -- engine ---------------------------------------------------------------

    def _engine_loop(self):
        try:
            while True:
                tail = yield self._doorbells.get()
                if self.failed:
                    continue
                while self._head < tail:
                    index = self._head
                    self._head += 1
                    # Entries run concurrently across the units.
                    self.sim.spawn(
                        self._execute(index),
                        name=f"{self.name}.{self.ENTRY_NAME}{index}",
                    )
        except Interrupt:
            return

    def _execute(self, index: int):
        try:
            ring = DescriptorRing(self.bar.regs[self.REG_RING],
                                  self.n_entries, entry_bytes=self.ENTRY_BYTES)
            raw = yield from self.dma_read(ring.entry_addr(index),
                                           self.ENTRY_BYTES)
            t0 = self.sim.now
            with self._units.request() as unit:
                yield unit
                status, length, output = yield from self._run(raw)
            self._busy_ns += self.sim.now - t0
            yield from self._write_output(index, output)
            cq = DescriptorRing(self.bar.regs[self.REG_CQ_RING],
                                self.n_entries, entry_bytes=COMPLETION_BYTES)
            cq_index = self._cq_index
            self._cq_index += 1
            # Cooperative backpressure: piggyback the ring's occupancy
            # (dispatched minus completed, per-mille of the ring) in the
            # otherwise-unused ``value`` field.  Same 16 B wire format;
            # clients that ignore value behave as before.
            inflight = max(0, self._head - self.completed)
            entry = CompletionEntry(
                seq=cq.seq_of(cq_index),
                status=status, index=index % INDEX_SPACE, length=length,
                value=min(1000, (1000 * inflight) // self.n_entries),
            )
            yield from self.dma_write(cq.entry_addr(cq_index), entry.encode())
            self.completed += 1
        except DeviceFailedError:
            # The device died mid-entry: drop it.  The borrower's
            # failover resubmits it on the successor.
            self.dropped += 1

    def _run(self, raw: bytes):
        """Process: execute one raw ring entry while holding a unit.

        Returns ``(status, length, output)``: the completion's status
        and length, and what :meth:`_write_output` gets.
        """
        raise NotImplementedError

    def _write_output(self, index: int, output):
        """Process: write entry ``index``'s output before its completion
        (nothing by default)."""
        yield from ()

    # -- telemetry ------------------------------------------------------------

    def utilization(self) -> float:
        window = self.sim.now - self._util_window_start
        if window <= 0:
            return 0.0
        # Normalize by unit-parallel capacity.
        return min(1.0, self._busy_ns / (window * self.n_units))

    def reset_utilization_window(self) -> None:
        self._busy_ns = 0.0
        self._util_window_start = self.sim.now
