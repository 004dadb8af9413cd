"""A Junction-like userspace UDP stack with pluggable buffer placement.

This is the software that §4.1's experiment modifies: an application-level
network stack that owns its NIC queues outright (kernel bypass) and
allocates TX/RX buffers either from local DRAM or from the CXL memory
pool.  The stack is also the consumer of the MMIO-forwarding layer: hand
it a :class:`~repro.datapath.proxy.RemoteDeviceHandle` and it drives a NIC
attached to *another* host — the full PCIe-pooling datapath.

Structure per stack instance:

* a TX descriptor ring + completion queue + ``n_desc`` payload buffers;
* an RX descriptor ring + completion queue + ``n_desc`` payload buffers,
  kept posted to the NIC and reposted after each delivery;
* background pollers for both completion queues;
* a tiny UDP layer (src port, dst port, length) for socket demux.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.channel.rpc import RpcError
from repro.cxl.link import LinkDownError
from repro.cxl.params import (
    FENCE_KICK_STREAK_LIMIT,
    HEDGE_STREAK_LIMIT,
    HEDGE_TX_DEADLINE_NS,
    LINK_RETRY_POLL_NS,
)
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.proxy import (
    DeviceGoneError,
    DeviceWithdrawnError,
    FenceSignals,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.pcie.device import DeviceFailedError
from repro.pcie.fabric import ETH_HEADER_BYTES, EthernetFrame
from repro.pcie.nic import Nic, RX_QUEUE, TX_QUEUE
from repro.pcie.rings import (
    COMPLETION_BYTES,
    DESCRIPTOR_BYTES,
    CompletionEntry,
    Descriptor,
    seq_for_pass,
)
from repro.sim import Interrupt, Resource, Store

#: src_port (u16), dst_port (u16), payload length (u32)
_UDP = struct.Struct("<HHI")
UDP_HEADER_BYTES = _UDP.size


class UdpSocket:
    """One bound UDP port."""

    def __init__(self, stack: "UdpStack", port: int):
        self.stack = stack
        self.port = port
        self._inbox = Store(stack.sim, name=f"udp:{port}")

    def recv(self):
        """Process: wait for the next datagram.

        Returns ``(payload, src_mac, src_port)``.
        """
        item = yield self._inbox.get()
        return item

    def sendto(self, payload: bytes, dst_mac: int, dst_port: int):
        """Process: send a datagram from this socket's port."""
        yield from self.stack.sendto(payload, dst_mac, dst_port,
                                     src_port=self.port)

    def close(self) -> None:
        self.stack._sockets.pop(self.port, None)


class UdpStack:
    """Userspace UDP over one NIC queue pair."""

    def __init__(self, sim, memsys, handle, driver_mem: DriverMemory,
                 mac: int, n_desc: int = 64, buf_bytes: int = 10240,
                 poll_ns: float = 100.0, name: str = "udp-stack",
                 tx_hint: Optional[Store] = None,
                 rx_hint: Optional[Store] = None,
                 sw_overhead_ns: float = 1800.0,
                 hedge_tx_deadline_ns: float = HEDGE_TX_DEADLINE_NS,
                 budget=None):
        self.sim = sim
        #: Per-client-host retry budget (optional): TX hedges draw from
        #: it softly, failover resends drain it unconditionally, and
        #: every TX completion deposits the goodput dividend.
        self.budget = budget
        self.memsys = memsys
        self.handle = handle
        self.mem = driver_mem
        self.mac = mac
        # Optional completion hints (see Nic.tx_cq_hint): when provided,
        # pollers sleep until a completion lands instead of spinning.
        self._tx_hint = tx_hint
        self._rx_hint = rx_hint
        # Per-datagram software cost outside the memory system: protocol
        # processing, scheduling, buffer management.  Calibrated so the
        # end-to-end RTT matches a Junction-class kernel-bypass stack.
        self.sw_overhead_ns = sw_overhead_ns
        self.n_desc = n_desc
        self.buf_bytes = buf_bytes
        self.poll_ns = poll_ns
        self.name = name
        # Memory layout.
        self.tx_ring = driver_mem.alloc(n_desc * DESCRIPTOR_BYTES, "tx-ring")
        self.rx_ring = driver_mem.alloc(n_desc * DESCRIPTOR_BYTES, "rx-ring")
        self.tx_cq = driver_mem.alloc(n_desc * COMPLETION_BYTES, "tx-cq")
        self.rx_cq = driver_mem.alloc(n_desc * COMPLETION_BYTES, "rx-cq")
        self.tx_bufs = driver_mem.alloc(n_desc * buf_bytes, "tx-bufs")
        self.rx_bufs = driver_mem.alloc(n_desc * buf_bytes, "rx-bufs")
        # Driver state.
        self._tx_tail = 0
        # Per-queue post lock: descriptors are 16 B (four share a
        # cacheline), so concurrent senders would lose updates in the
        # read-modify-write of the shared line, and doorbells must be
        # rung in descriptor order.  A single-producer queue discipline —
        # exactly what a real multi-threaded driver enforces — fixes both.
        self._tx_lock = Resource(sim, capacity=1, name=f"{name}.txlock")
        self._tx_credits = Store(sim, name=f"{name}.txcred")
        for _ in range(n_desc):
            self._tx_credits.put(None)
        self._rx_tail = 0
        self._sockets: dict[int, UdpSocket] = {}
        self._pollers: list = []
        self._started = False
        # TX frame journal: encoded frame per descriptor index, kept
        # until its completion is observed.  After an owner-host failure
        # the VirtualNic drains whatever completions the dying owner
        # already wrote (the CQ is pool memory and outlives the owner)
        # and resends only the still-unfinished frames on the successor
        # stack — zero lost, zero duplicated TX completions.
        self._tx_journal: dict[int, bytes] = {}
        self._tx_cq_head = 0
        self._kick_pending = False
        self._kick_streak = 0
        #: TX completions silent for this long while frames are
        #: journaled → the hedge watchdog re-rings both doorbells.
        #: Doorbells are max()-semantics and journaled frames are only
        #: resent through the failover dedup path, so a hedge racing a
        #: slow-but-alive owner cannot duplicate a datagram.
        self.hedge_tx_deadline_ns = hedge_tx_deadline_ns
        self._tx_progress_ns = 0.0
        self._hedge_streak = 0
        # Fault tolerance: CQ pollers and repost paths survive link flaps
        # by backing off and retrying instead of dying.
        self.fault_retry_ns = LINK_RETRY_POLL_NS
        self.fault_retry_limit = 200
        # Telemetry.
        self.datagrams_sent = 0
        self.datagrams_received = 0
        self.datagrams_dropped_no_socket = 0
        self.datagrams_dropped_fault = 0
        self.datagrams_resent = 0
        self.fence_kicks = 0
        self.hedges = 0
        self.link_retries = 0
        self._subscribe_fence_signals()

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Process: configure the NIC rings and start the pollers."""
        if self._started:
            raise RuntimeError(f"{self.name} already started")
        self._started = True
        # Zero the driver tails: start() may be re-entered (after stop())
        # when a previous bring-up died mid-flap, and the REG_RESET below
        # zeroes the device-side heads to match.
        self._tx_tail = 0
        self._rx_tail = 0
        self._tx_cq_head = 0
        self._tx_journal = {}
        # Reset the NIC's queue heads: a driver taking over a (possibly
        # previously-borrowed) device must not inherit stale ring state.
        yield from self.handle.write_register(Nic.REG_RESET, 1)
        for reg, addr in (
            (Nic.REG_TX_RING, self.tx_ring),
            (Nic.REG_RX_RING, self.rx_ring),
            (Nic.REG_TX_CQ, self.tx_cq),
            (Nic.REG_RX_CQ, self.rx_cq),
        ):
            yield from self.handle.write_register(reg, addr)
        # Post the entire RX buffer pool.
        for i in range(self.n_desc):
            yield from self._post_rx(i)
        yield from self.mem.fence()
        yield from self.handle.ring_doorbell(RX_QUEUE, self._rx_tail)
        self._pollers = [
            self.sim.spawn(self._tx_cq_poller(), name=f"{self.name}.txcq"),
            self.sim.spawn(self._rx_cq_poller(), name=f"{self.name}.rxcq"),
            self.sim.spawn(self._tx_hedge_watchdog(),
                           name=f"{self.name}.hedge"),
        ]

    def stop(self) -> None:
        for poller in self._pollers:
            if poller.is_alive:
                poller.interrupt(cause="stack stopped")
        self._pollers = []
        self._started = False

    # -- sockets ------------------------------------------------------------------

    def bind(self, port: int) -> UdpSocket:
        if port in self._sockets:
            raise ValueError(f"port {port} already bound on {self.name}")
        sock = UdpSocket(self, port)
        self._sockets[port] = sock
        return sock

    # -- TX path -----------------------------------------------------------------------

    def sendto(self, payload: bytes, dst_mac: int, dst_port: int,
               src_port: int = 0):
        """Process: transmit one UDP datagram (blocks on TX credits)."""
        header_total = ETH_HEADER_BYTES + UDP_HEADER_BYTES
        if header_total + len(payload) > self.buf_bytes:
            raise ValueError(
                f"datagram of {len(payload)} B exceeds buffer size "
                f"{self.buf_bytes - header_total} B"
            )
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "udp.send", self.sim.now,
                track=f"{self.memsys.host_id}/udp", cat="udp",
                args={"bytes": len(payload), "dst_port": dst_port,
                      "remote": self.handle.is_remote},
            )
        try:
            yield self.sim.timeout(self.sw_overhead_ns)
            datagram = (_UDP.pack(src_port, dst_port, len(payload))
                        + payload)
            frame = EthernetFrame(dst_mac, self.mac, datagram).encode()
            yield from self._send_frame(frame, parent=span)
        finally:
            if span is not None:
                tracer.end(span, self.sim.now)

    def sendto_burst(self, payloads, dst_mac: int, dst_port: int,
                     src_port: int = 0):
        """Process: transmit several datagrams, ringing the doorbell once.

        All descriptors of the burst are posted under one TX-lock hold
        and one fence, then a single doorbell (carrying the final tail)
        exposes them — N frames per forwarded MMIO op instead of one.
        The per-datagram software cost is paid once for the batch, like
        a sendmmsg()-style submission.  Returns the number of datagrams
        posted (= ``len(payloads)``), matching ``RingSender.send_burst``.
        """
        payloads = list(payloads)
        header_total = ETH_HEADER_BYTES + UDP_HEADER_BYTES
        for payload in payloads:
            if header_total + len(payload) > self.buf_bytes:
                raise ValueError(
                    f"datagram of {len(payload)} B exceeds buffer size "
                    f"{self.buf_bytes - header_total} B"
                )
        if not payloads:
            return 0
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "udp.send_burst", self.sim.now,
                track=f"{self.memsys.host_id}/udp", cat="udp",
                args={"n": len(payloads), "dst_port": dst_port,
                      "remote": self.handle.is_remote},
            )
        try:
            yield self.sim.timeout(self.sw_overhead_ns)
            frames = [
                EthernetFrame(
                    dst_mac, self.mac,
                    _UDP.pack(src_port, dst_port, len(payload)) + payload,
                ).encode()
                for payload in payloads
            ]
            yield from self._send_frames(frames, parent=span)
            return len(payloads)
        finally:
            if span is not None:
                tracer.end(span, self.sim.now)

    def _send_frames(self, frames: list, parent=None):
        """Process: publish a batch of frames, one doorbell per chunk.

        Flow control mirrors ``RingSender.send_burst``: block for one
        free TX slot, then take as many further credits as are free
        *right now* (capped at the ring size) and post that chunk under
        one fence and one doorbell.  A burst larger than the ring —
        or racing other senders for credits — proceeds in chunks
        instead of draining the whole credit pool up front, so it can
        never deadlock holding credits that only completions of its
        own unposted frames would replenish.
        """
        pos = 0
        while pos < len(frames):
            yield self._tx_credits.get()
            take = 1
            limit = min(len(frames) - pos, self.n_desc)
            while take < limit and self._tx_credits.items:
                self._tx_credits.try_get()
                take += 1
            yield from self._post_tx_chunk(frames[pos:pos + take], parent)
            pos += take

    def _post_tx_chunk(self, chunk: list, parent=None):
        """Process: publish one credit-backed chunk under one doorbell.

        Mirrors :meth:`_send_frame` slot for slot — per-frame journal,
        retried descriptor writes — but orders the chunk with one fence
        and exposes it with one doorbell carrying the final tail.
        """
        with self._tx_lock.request() as lock:
            try:
                yield lock
            except BaseException:
                # Nothing reserved yet: hand the chunk's credits back so
                # an abandoned wait can't leak pool capacity.
                for _ in chunk:
                    self._tx_credits.put(None)
                raise
            first = self._tx_tail
            self._tx_tail += len(chunk)
            tail = self._tx_tail
            journaled: list[int] = []
            try:
                for offset, frame in enumerate(chunk):
                    index = first + offset
                    slot = index % self.n_desc
                    if not self._tx_journal:
                        # Hedge clock starts when work becomes pending.
                        self._tx_progress_ns = self.sim.now
                    self._tx_journal[index % (1 << 16)] = frame
                    journaled.append(index)
                    buf = self.tx_bufs + slot * self.buf_bytes
                    desc_addr = self.tx_ring + slot * DESCRIPTOR_BYTES
                    # Reserved slots: retried across flaps so the NIC
                    # never fetches a garbage descriptor (see
                    # _send_frame).
                    for attempt in range(self.fault_retry_limit + 1):
                        try:
                            yield from self.mem.write(buf, frame)
                            yield from self.mem.write(
                                desc_addr,
                                Descriptor(buf, len(frame)).encode(),
                            )
                            break
                        except LinkDownError:
                            if attempt >= self.fault_retry_limit:
                                raise
                            self.link_retries += 1
                            yield self.sim.timeout(self.fault_retry_ns)
                yield from self.mem.fence()
                if parent is not None and _obs.TRACER.enabled:
                    _obs.TRACER.instant(
                        "udp.doorbell", self.sim.now,
                        track=f"{self.memsys.host_id}/udp",
                        parent=parent, cat="udp",
                    )
                yield from self.handle.ring_doorbell(TX_QUEUE, tail,
                                                     parent=parent)
            except BaseException:
                # The caller observes this failure and owns any retry;
                # leaving the frames journaled would make a later
                # failover replay them a second time.  The chunk's
                # credits stay consumed with their reserved slots,
                # exactly like a failed single-frame send.
                for index in journaled:
                    self._tx_journal.pop(index % (1 << 16), None)
                raise
        self.datagrams_sent += len(chunk)

    def _send_frame(self, frame: bytes, parent=None):
        """Process: publish one encoded frame and ring the TX doorbell.

        Shared between first-time sends and post-failover resends; the
        frame is journaled until its TX completion is observed.
        """
        yield self._tx_credits.get()
        with self._tx_lock.request() as lock:
            yield lock
            index = self._tx_tail
            slot = index % self.n_desc
            self._tx_tail += 1
            tail = self._tx_tail
            if not self._tx_journal:
                # Hedge clock starts when work becomes pending.
                self._tx_progress_ns = self.sim.now
            self._tx_journal[index % (1 << 16)] = frame
            buf = self.tx_bufs + slot * self.buf_bytes
            desc_addr = self.tx_ring + slot * DESCRIPTOR_BYTES
            try:
                # The descriptor slot is reserved above, so the writes
                # must be retried across a link flap: abandoning them
                # would leave a garbage descriptor the NIC later fetches.
                for attempt in range(self.fault_retry_limit + 1):
                    try:
                        yield from self.mem.write(buf, frame)
                        yield from self.mem.write(
                            desc_addr,
                            Descriptor(buf, len(frame)).encode(),
                        )
                        yield from self.mem.fence()
                        break
                    except LinkDownError:
                        if attempt >= self.fault_retry_limit:
                            raise
                        self.link_retries += 1
                        yield self.sim.timeout(self.fault_retry_ns)
                if parent is not None and _obs.TRACER.enabled:
                    # DMA-visible point: descriptors published, doorbell
                    # about to ring — the span's tail is doorbell cost.
                    _obs.TRACER.instant(
                        "udp.doorbell", self.sim.now,
                        track=f"{self.memsys.host_id}/udp",
                        parent=parent, cat="udp",
                    )
                yield from self.handle.ring_doorbell(TX_QUEUE, tail,
                                                     parent=parent)
            except BaseException:
                # The caller observes this failure and owns any retry;
                # leaving the frame journaled would make a later
                # failover replay it a second time.
                self._tx_journal.pop(index % (1 << 16), None)
                raise
        self.datagrams_sent += 1

    def resend_frame(self, frame: bytes):
        """Process: resubmit a journaled frame (post-failover path)."""
        self.datagrams_resent += 1
        if self.budget is not None:
            # Correctness traffic: never refused, but accounted, so
            # discretionary hedges stand down behind the replay.
            self.budget.spend_forced(1.0)
        yield from self._send_frame(frame)

    def unfinished_tx(self) -> list:
        """Journaled frames with no observed TX completion, in order."""
        return [self._tx_journal[key] for key in sorted(self._tx_journal)]

    def drain_tx_for_failover(self):
        """Process: harvest TX completions the previous owner wrote.

        Run on the *old* stack (pollers stopped, driver memory still
        held) before its unfinished frames are replayed on a successor:
        every completion found here is a frame that must NOT be resent.
        """
        yield self.sim.timeout(2_000.0)  # let in-flight CQ writes land
        while self._tx_journal:
            expect = seq_for_pass(self._tx_cq_head // self.n_desc)
            addr = (self.tx_cq
                    + (self._tx_cq_head % self.n_desc) * COMPLETION_BYTES)
            try:
                raw = yield from self.mem.read(addr, COMPLETION_BYTES)
            except LinkDownError:
                break
            entry = CompletionEntry.decode(raw)
            if entry.seq != expect:
                break
            self._tx_cq_head += 1
            self._tx_journal.pop(entry.index % (1 << 16), None)

    def _tx_cq_poller(self):
        try:
            while True:
                entry = yield from self._poll_cq(
                    self.tx_cq, self._tx_cq_head, self._tx_hint
                )
                self._tx_cq_head += 1
                self._tx_journal.pop(entry.index % (1 << 16), None)
                self._kick_streak = 0
                self._hedge_streak = 0
                self._tx_progress_ns = self.sim.now
                if self.budget is not None:
                    self.budget.on_success()
                # Completion frees the slot for reuse.
                self._tx_credits.put(None)
        except Interrupt:
            return

    # -- fence nacks (lease token rotated under a posted doorbell) ----------

    def _subscribe_fence_signals(self) -> None:
        endpoint = getattr(self.handle, "endpoint", None)
        if endpoint is None:
            return
        FenceSignals.attach(endpoint).subscribe(
            self.handle.device_id, self._on_fence_nack
        )

    def _on_fence_nack(self, msg) -> None:
        if (msg.device_id != self.handle.device_id
                or not self._started
                or self._kick_pending
                or self._kick_streak >= FENCE_KICK_STREAK_LIMIT):
            return
        self._kick_pending = True
        self.sim.spawn(self._fence_kick(), name=f"{self.name}.kick")

    def _fence_kick(self, delay_ns: float = 1_000_000.0):
        """Process: re-ring both doorbells with a refreshed token —
        recovers doorbells dropped while the same owner's lease token
        rotated.  Bounded by ``_kick_streak`` (reset on TX completion);
        a genuinely-moved NIC is rebuilt by the VirtualNic instead."""
        try:
            yield self.sim.timeout(delay_ns)
            if not self._started:
                return
            self._kick_streak += 1
            self.fence_kicks += 1
            _obs.METRICS.counter(_names.UDP_FENCE_KICKS).inc()
            self.handle.refresh()
            yield from self.handle.ring_doorbell(TX_QUEUE, self._tx_tail)
            yield from self.handle.ring_doorbell(RX_QUEUE, self._rx_tail)
        except (RpcError, LinkDownError, DeviceGoneError,
                DeviceFailedError):
            pass
        finally:
            self._kick_pending = False

    def _tx_hedge_watchdog(self):
        """Process: deadline-hedge a silent TX completion queue.

        When frames sit journaled past the hedge deadline with no TX
        completion progress, the owner is likely alive-but-slow (gray):
        re-ring both doorbells with a refreshed token rather than wait
        for the VirtualNic's full failover.  Streak-bounded like
        ``_fence_kick`` (reset on any TX completion) so a dead owner
        still falls through to the failover path.
        """
        try:
            while True:
                yield self.sim.timeout(self.hedge_tx_deadline_ns)
                if (not self._started
                        or not self._tx_journal
                        or self._hedge_streak >= HEDGE_STREAK_LIMIT):
                    continue
                if (self.sim.now - self._tx_progress_ns
                        <= self.hedge_tx_deadline_ns):
                    continue
                if (self.budget is not None
                        and not self.budget.try_spend_hedge(1.0)):
                    continue  # budget low: hedges stand down first
                self._hedge_streak += 1
                self.hedges += 1
                _obs.METRICS.counter(_names.UDP_HEDGES).inc()
                # Root span (no parent): the attributor's udp.hedge
                # residual rule bills its self time to the hedge phase.
                hspan = _obs.TRACER.begin(
                    "udp.hedge", self.sim.now,
                    track=f"{self.memsys.host_id}/udp", cat="io",
                    args={"journaled": len(self._tx_journal)},
                )
                try:
                    self.handle.refresh()
                    yield from self.handle.ring_doorbell(
                        TX_QUEUE, self._tx_tail)
                    yield from self.handle.ring_doorbell(
                        RX_QUEUE, self._rx_tail)
                except (RpcError, LinkDownError, DeviceGoneError,
                        DeviceFailedError):
                    pass
                finally:
                    _obs.TRACER.end(hspan, self.sim.now)
        except Interrupt:
            return

    # -- RX path --------------------------------------------------------------------------

    def _post_rx(self, slot: int):
        buf = self.rx_bufs + slot * self.buf_bytes
        desc_addr = self.rx_ring + slot * DESCRIPTOR_BYTES
        yield from self.mem.write(
            desc_addr, Descriptor(buf, self.buf_bytes).encode()
        )
        self._rx_tail += 1

    def _rx_cq_poller(self):
        head = 0
        try:
            while True:
                entry = yield from self._poll_cq(
                    self.rx_cq, head, self._rx_hint
                )
                head += 1
                # Deliveries run concurrently (multi-core stack): the
                # poller must not serialize per-datagram software cost.
                self.sim.spawn(
                    self._deliver_and_repost(entry),
                    name=f"{self.name}.deliver",
                )
        except Interrupt:
            return

    def _deliver_and_repost(self, entry: CompletionEntry):
        slot = entry.index % self.n_desc
        if entry.status == CompletionEntry.STATUS_OK:
            try:
                yield from self._deliver(slot, entry.length)
            except LinkDownError:
                # Buffer unreadable mid-flap: the datagram is lost, like a
                # frame dropped on a real wire.  The buffer still recycles.
                self.datagrams_dropped_fault += 1
                if _obs.TRACER.enabled:
                    _obs.TRACER.instant(
                        "udp.drop_fault", self.sim.now,
                        track=f"{self.memsys.host_id}/udp", cat="udp",
                        args={"slot": slot},
                    )
        # Recycle the buffer.  Reposted descriptors are bit-identical to
        # what the ring slot already holds, so concurrent reposts cannot
        # corrupt each other, and the NIC treats doorbells as max().
        # Retried across flaps: a leaked RX slot would slowly starve the
        # NIC of buffers.
        reposted = False
        for _ in range(self.fault_retry_limit):
            try:
                if not reposted:
                    yield from self._post_rx(slot)
                    reposted = True
                yield from self.mem.fence()
                yield from self.handle.ring_doorbell(RX_QUEUE,
                                                     self._rx_tail)
                return
            except DeviceWithdrawnError:
                # The assignment itself is gone — nothing to retry
                # against; the VirtualNic rebuilds the stack with a full
                # fresh RX pool, so this slot is not leaked.
                self.datagrams_dropped_fault += 1
                return
            except (LinkDownError, RpcError, DeviceGoneError,
                    DeviceFailedError):
                self.link_retries += 1
                yield self.sim.timeout(self.fault_retry_ns)
        self.datagrams_dropped_fault += 1

    def _deliver(self, slot: int, length: int):
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                "udp.deliver", self.sim.now,
                track=f"{self.memsys.host_id}/udp", cat="udp",
                args={"bytes": length, "slot": slot},
            )
        try:
            yield self.sim.timeout(self.sw_overhead_ns)
            buf = self.rx_bufs + slot * self.buf_bytes
            raw = yield from self.mem.read(buf, length)
            frame = EthernetFrame.decode(raw)
            src_port, dst_port, payload_len = _UDP.unpack_from(
                frame.payload, 0
            )
            payload = frame.payload[
                UDP_HEADER_BYTES:UDP_HEADER_BYTES + payload_len
            ]
            sock = self._sockets.get(dst_port)
            if sock is None:
                self.datagrams_dropped_no_socket += 1
                if tracer.enabled:
                    tracer.instant(
                        "udp.drop_no_socket", self.sim.now,
                        track=f"{self.memsys.host_id}/udp",
                        parent=span, cat="udp",
                        args={"dst_port": dst_port},
                    )
                return
            self.datagrams_received += 1
            sock._inbox.put((payload, frame.src_mac, src_port))
        finally:
            if span is not None:
                tracer.end(span, self.sim.now)

    # -- shared CQ polling -------------------------------------------------------------------

    def _poll_cq(self, cq_base: int, head: int,
                 hint: Optional[Store] = None):
        expect = seq_for_pass(head // self.n_desc)
        addr = cq_base + (head % self.n_desc) * COMPLETION_BYTES
        if hint is not None:
            # Hint-driven: sleep until a completion lands, then read it.
            # Observes the same memory state as a poller, minus the
            # simulated cost of idle poll iterations.
            yield hint.get()
        while True:
            try:
                raw = yield from self.mem.read(addr, COMPLETION_BYTES)
            except LinkDownError:
                # CQ memory unreachable mid-flap: back off and re-poll
                # rather than killing the poller (and with it the stack).
                self.link_retries += 1
                yield self.sim.timeout(self.fault_retry_ns)
                continue
            entry = CompletionEntry.decode(raw)
            if entry.seq == expect:
                return entry
            yield self.sim.timeout(self.poll_ns)

    def __repr__(self) -> str:
        return (
            f"<UdpStack {self.name!r} host={self.memsys.host_id} "
            f"placement={self.mem.placement.value} "
            f"tx={self.datagrams_sent} rx={self.datagrams_received}>"
        )
