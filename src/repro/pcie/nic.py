"""NIC model: descriptor rings, DMA, doorbells, completion queues.

Mirrors the structure of a kernel-bypass NIC (ConnectX-5 class, 100 Gbps):

* software writes TX descriptors (pointing at payload buffers) into a ring
  in memory and rings the TX doorbell with the new tail index;
* the NIC DMA-reads descriptors and payloads, serializes frames onto the
  wire at line rate, and DMA-writes a TX completion entry per frame;
* software posts RX buffers the same way through the RX ring; arriving
  frames are DMA-written into the next free buffer, followed by an RX
  completion entry carrying the frame length.

Everything the NIC touches in memory goes through the attached host's
memory system — so when the rings and buffers live in CXL pool memory the
DMA crosses the host's CXL links with realistic timing, and *other* hosts
in the pod can produce descriptors and consume completions directly (the
paper's datapath).  Only the doorbell is MMIO and therefore local-only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cxl.link import LinkDownError
from repro.pcie.device import DeviceFailedError, PcieDevice
from repro.pcie.fabric import EthernetSwitch
from repro.pcie.rings import (
    COMPLETION_BYTES,
    DESCRIPTOR_BYTES,
    CompletionEntry,
    Descriptor,
    DescriptorRing,
    seq_for_pass,
)
from repro.sim import Interrupt, Resource, Simulator, Store

TX_QUEUE = 0
RX_QUEUE = 1


@dataclass(frozen=True)
class NicSpec:
    """Static NIC configuration."""

    rate_gbps: float = 12.5      # 100 Gbps = 12.5 GB/s, in bytes/ns
    n_desc: int = 256            # descriptors per ring
    mtu: int = 9014              # max payload per frame (jumbo)
    #: Fixed per-frame pipeline latency inside the NIC (parse, schedule).
    pipeline_ns: float = 300.0
    #: Descriptors processed concurrently per direction.  Real NICs keep
    #: many DMA reads in flight, which is why memory latency (DDR or CXL)
    #: does not bound their packet rate — only bandwidth does.
    pipeline_depth: int = 8


class Nic(PcieDevice):
    """A 100 Gbps-class NIC."""

    # BAR layout (8 B registers).
    REG_TX_DB = 0x10
    REG_RX_DB = 0x18
    REG_TX_RING = 0x20
    REG_RX_RING = 0x28
    REG_TX_CQ = 0x30
    REG_RX_CQ = 0x38
    REG_MAC = 0x40
    REG_ENABLE = 0x48

    def __init__(self, sim: Simulator, name: str, device_id: int,
                 mac: int, spec: NicSpec = NicSpec(),
                 wire: Resource | None = None):
        super().__init__(sim, name, device_id)
        self.spec = spec
        self.mac = mac
        self.fabric: EthernetSwitch | None = None
        #: Wire egress arbiter.  SR-IOV virtual functions of one physical
        #: port pass a shared Resource here so they contend for the same
        #: line rate (see :class:`repro.pcie.physnic.PhysicalNic`).
        self._shared_wire = wire
        for reg in (self.REG_TX_DB, self.REG_RX_DB, self.REG_TX_RING,
                    self.REG_RX_RING, self.REG_TX_CQ, self.REG_RX_CQ,
                    self.REG_ENABLE):
            self.bar.regs[reg] = 0
        self.bar.regs[self.REG_MAC] = mac
        # Doorbell wakeups.
        self._tx_doorbells = Store(sim, name=f"{name}.txdb")
        self._rx_doorbells = Store(sim, name=f"{name}.rxdb")
        self._rx_frames = Store(sim, name=f"{name}.rxq")
        # Completion hints: simulator-level wakeups pollers may subscribe
        # to instead of spinning.  One token is put after each completion
        # entry lands in memory, so a hint-driven poller observes the same
        # data at (approximately) the same time as a busy-polling one,
        # without the simulation cost of idle poll iterations.
        self.tx_cq_hint = Store(sim, name=f"{name}.txhint")
        self.rx_cq_hint = Store(sim, name=f"{name}.rxhint")
        # Engine state.
        self._tx_pipe = Resource(sim, capacity=spec.pipeline_depth,
                                 name=f"{name}.txpipe")
        self._rx_pipe = Resource(sim, capacity=spec.pipeline_depth,
                                 name=f"{name}.rxpipe")
        self._wire = wire or Resource(sim, capacity=1, name=f"{name}.wire")
        self._tx_head = 0          # next descriptor the NIC will fetch
        self._rx_head = 0
        self._rx_posted_tail = 0   # descriptors software has posted
        self._tx_cq_index = 0
        self._rx_cq_index = 0
        self._engines: list = []
        # PCIe-replay-style tolerance for CXL link flaps: a descriptor or
        # completion DMA that hits a dead link is retried at this cadence
        # instead of crashing the engine (rings may live in pool memory).
        self.link_retry_ns = 100_000.0
        self.link_retry_limit = 200
        # Telemetry.
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_dropped_no_buffer = 0
        self.frames_dropped_fault = 0
        self.dma_link_retries = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._busy_ns = 0.0
        self._util_window_start = 0.0

    # -- wiring ------------------------------------------------------------

    def plug_into(self, fabric: EthernetSwitch) -> None:
        """Connect this NIC's port to a switch."""
        self.fabric = fabric
        fabric.connect(self)

    def start(self) -> None:
        """Start the TX/RX engines (after rings are configured via MMIO)."""
        if self._engines:
            raise RuntimeError(f"{self.name} already started")
        self._engines = [
            self.sim.spawn(self._tx_engine(), name=f"{self.name}.tx"),
            self.sim.spawn(self._rx_engine(), name=f"{self.name}.rx"),
        ]

    def stop(self) -> None:
        for engine in self._engines:
            if engine.is_alive:
                engine.interrupt(cause="nic stopped")
        self._engines = []

    # -- register side effects ------------------------------------------------

    def on_mmio_write(self, offset: int, value: int) -> None:
        super().on_mmio_write(offset, value)
        if offset == self.REG_TX_DB:
            self._tx_doorbells.put(value)
        elif offset == self.REG_RX_DB:
            self._rx_doorbells.put(value)

    def on_reset(self) -> None:
        self._tx_head = 0
        self._rx_head = 0
        self._rx_posted_tail = 0
        self._tx_cq_index = 0
        self._rx_cq_index = 0

    # -- ring geometry (from BAR registers) ---------------------------------------

    def _ring(self, reg: int) -> DescriptorRing:
        base = self.bar.regs[reg]
        if base == 0:
            raise RuntimeError(
                f"{self.name}: ring register {reg:#x} not configured"
            )
        return DescriptorRing(base, self.spec.n_desc)

    def _cq_ring(self, reg: int) -> DescriptorRing:
        base = self.bar.regs[reg]
        if base == 0:
            raise RuntimeError(
                f"{self.name}: CQ register {reg:#x} not configured"
            )
        return DescriptorRing(base, self.spec.n_desc,
                              entry_bytes=COMPLETION_BYTES)

    # -- TX engine -------------------------------------------------------------------

    def _tx_engine(self):
        try:
            while True:
                tail = yield self._tx_doorbells.get()
                if self.failed:
                    continue
                while self._tx_head < tail:
                    index = self._tx_head
                    self._tx_head += 1
                    # Bounded pipelining: up to pipeline_depth descriptors
                    # in flight; their DMA latencies overlap.
                    slot = self._tx_pipe.request()
                    yield slot
                    self.sim.spawn(
                        self._transmit_one(index, slot),
                        name=f"{self.name}.tx{index}",
                    )
        except Interrupt:
            return

    def _dma_retry(self, op, *args):
        """Process: DMA with bounded replay across short link outages."""
        attempts = 0
        while True:
            try:
                result = yield from op(*args)
                return result
            except LinkDownError:
                attempts += 1
                if attempts > self.link_retry_limit:
                    raise
                self.dma_link_retries += 1
                yield self.sim.timeout(self.link_retry_ns)

    def _transmit_one(self, index: int, pipe_slot):
        try:
            ring = self._ring(self.REG_TX_RING)
            t0 = self.sim.now
            raw_desc = yield from self._dma_retry(
                self.dma_read, ring.entry_addr(index), DESCRIPTOR_BYTES
            )
            desc = Descriptor.decode(raw_desc)
            if desc.length <= 0 or desc.length > self.spec.mtu:
                # Garbage or oversize descriptor (e.g. a slot a faulted
                # driver never finished writing): error-complete it so the
                # CQ sequence stays gapless.
                yield from self._complete(
                    self.REG_TX_CQ, "_tx_cq_index", index,
                    status=CompletionEntry.STATUS_ERROR,
                    length=max(0, desc.length),
                )
                return
            payload = yield from self._dma_retry(
                self.dma_read, desc.addr, desc.length
            )
            yield self.sim.timeout(self.spec.pipeline_ns)
            # Wire egress is the one serial stage: line rate.
            with self._wire.request() as wire:
                yield wire
                yield self.sim.timeout(desc.length / self.spec.rate_gbps)
            if self.fabric is not None:
                self.sim.spawn(
                    self.fabric.forward(payload),
                    name=f"{self.name}.fwd",
                )
            self.frames_sent += 1
            self.bytes_sent += desc.length
            self._busy_ns += self.sim.now - t0
            yield from self._complete(
                self.REG_TX_CQ, "_tx_cq_index", index,
                status=CompletionEntry.STATUS_OK, length=desc.length,
            )
        except (DeviceFailedError, LinkDownError):
            # The device died (or the link never came back) mid-frame:
            # drop it.  The control plane rebuilds the datapath.
            self.frames_dropped_fault += 1
        finally:
            self._tx_pipe.release(pipe_slot)

    # -- RX engine ---------------------------------------------------------------------

    def deliver(self, raw: bytes) -> None:
        """Called by the fabric when a frame arrives at this port."""
        if self.failed:
            return
        if len(self._rx_frames) >= 4 * self.spec.n_desc:
            # Device FIFO overflow under extreme overload.
            self.frames_dropped_no_buffer += 1
            return
        self._rx_frames.put(raw)

    def _rx_engine(self):
        try:
            while True:
                raw = yield self._rx_frames.get()
                if self.failed:
                    continue
                # Absorb any new RX doorbells (posted buffer count).
                while True:
                    tail = self._rx_doorbells.try_get()
                    if tail is None:
                        break
                    self._rx_posted_tail = max(self._rx_posted_tail, tail)
                if self._rx_head >= self._rx_posted_tail:
                    self.frames_dropped_no_buffer += 1
                    continue
                index = self._rx_head
                self._rx_head += 1
                slot = self._rx_pipe.request()
                yield slot
                self.sim.spawn(
                    self._receive_one(raw, index, slot),
                    name=f"{self.name}.rx{index}",
                )
        except Interrupt:
            return

    def _receive_one(self, raw: bytes, index: int, pipe_slot):
        try:
            ring = self._ring(self.REG_RX_RING)
            raw_desc = yield from self._dma_retry(
                self.dma_read, ring.entry_addr(index), DESCRIPTOR_BYTES
            )
            desc = Descriptor.decode(raw_desc)
            if len(raw) > desc.length:
                # Frame larger than the posted buffer: truncate-and-error.
                yield from self._complete(
                    self.REG_RX_CQ, "_rx_cq_index", index,
                    status=CompletionEntry.STATUS_ERROR, length=len(raw),
                )
                return
            yield self.sim.timeout(self.spec.pipeline_ns)
            yield from self._dma_retry(self.dma_write, desc.addr, raw)
            self.frames_received += 1
            self.bytes_received += len(raw)
            yield from self._complete(
                self.REG_RX_CQ, "_rx_cq_index", index,
                status=CompletionEntry.STATUS_OK, length=len(raw),
            )
        except (DeviceFailedError, LinkDownError):
            self.frames_dropped_fault += 1
        finally:
            self._rx_pipe.release(pipe_slot)

    # -- completions -----------------------------------------------------------------------

    def _complete(self, cq_reg: int, counter_attr: str, desc_index: int,
                  status: int, length: int):
        cq = self._cq_ring(cq_reg)
        # Reserve the CQ slot synchronously: concurrent pipelined
        # completions must never write the same entry.
        cq_index = getattr(self, counter_attr)
        setattr(self, counter_attr, cq_index + 1)
        # Piggyback queue occupancy (dispatched minus completed on this
        # CQ's queue, per-mille of the ring) in the spare ``value``
        # field — cooperative backpressure, same convention as the SSD.
        head = (self._tx_head if cq_reg == self.REG_TX_CQ
                else self._rx_head)
        inflight = max(0, head - cq_index)
        entry = CompletionEntry(
            seq=seq_for_pass(cq_index // cq.n_entries),
            status=status,
            index=desc_index % (1 << 16),
            length=length,
            value=min(1000, (1000 * inflight) // self.spec.n_desc),
        )
        # The completion write is retried hard: a lost entry would leave a
        # seq hole that wedges the driver's CQ poller forever.
        yield from self._dma_retry(
            self.dma_write, cq.entry_addr(cq_index), entry.encode()
        )
        hint = (self.tx_cq_hint if cq_reg == self.REG_TX_CQ
                else self.rx_cq_hint)
        hint.put(cq_index)

    def doorbell_register(self, queue_id: int) -> int:
        if queue_id == TX_QUEUE:
            return self.REG_TX_DB
        if queue_id == RX_QUEUE:
            return self.REG_RX_DB
        raise ValueError(f"NIC has no queue {queue_id}")

    # -- telemetry ------------------------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of wall-clock the TX path was busy since last reset."""
        window = self.sim.now - self._util_window_start
        if window <= 0:
            return 0.0
        return min(1.0, self._busy_ns / window)

    def reset_utilization_window(self) -> None:
        self._busy_ns = 0.0
        self._util_window_start = self.sim.now

    def __repr__(self) -> str:
        host = self.attached_host_id or "unattached"
        state = "FAILED" if self.failed else "ok"
        return (
            f"<Nic {self.name!r} mac={self.mac:#x} @{host} {state} "
            f"tx={self.frames_sent} rx={self.frames_received}>"
        )
