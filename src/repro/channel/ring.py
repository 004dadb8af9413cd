"""SPSC ring buffer in shared CXL memory with 64 B cacheline slots.

Wire layout of the shared region (all offsets cacheline-aligned)::

    offset 0                 : receiver progress line (consumed count, 8 B LE)
    offset 64 .. 64 + N*64   : N message slots

Each slot is one cacheline::

    byte  0      : sequence tag (1 + pass_number % 250; 0 = never written)
    bytes 1..2   : payload length (LE)
    bytes 3..6   : CRC32 over bytes 0..2 + payload (LE)
    bytes 7..63  : payload (<= 57 B)

The sender writes a complete slot with a single non-temporal 64 B store —
the tag and payload become visible at the device atomically, so a receiver
can never observe a half-written message (matching the paper's "64 B slots
sized to cacheline granularity").  The sequence tag encodes the ring pass,
so slot reuse never looks like a new message and the receiver never
re-consumes an old one.

Memory RAS: the per-slot CRC makes corruption *detectable* — a torn write
(e.g. an interleaved layout splitting a slot across devices, or a partial
media scrub) or any bit damage fails the CRC and surfaces as
:class:`SlotCorruptionError` instead of a silently-garbled message.  A
poisoned slot line surfaces the same way (the media refuses the read).
Either way the receiver *advances past* the damaged slot and counts it;
end-to-end recovery is the sender's job — RPC callers retransmit with a
fresh request id (see :meth:`repro.channel.rpc.RpcEndpoint.call_with_retry`),
and the sender's next pass over the slot scrubs the poison by overwriting.

Flow control: the receiver periodically publishes its consumed count into
the progress line; a sender that catches up with ``consumed + N`` polls
that line until space opens.  No cross-host atomics are needed — single
producer, single consumer, each variable written by exactly one side.

Wakeups: a receiver that finds its ring empty may park instead of
polling (see :mod:`repro.channel.rpc`).  The ring owns that rendezvous.
A slot becomes readable only through :meth:`RingSender._publish`,
which ends in one ``_announce``:
it records the sender's count on the receiver
(:attr:`RingReceiver.published`) and triggers the receiver's pending
:attr:`RingReceiver.wake` event.  A parked poller therefore cannot miss
a publish, and needs no timeout to bound a missed one.

Burst datapath: :meth:`RingSender.send_burst` reserves K contiguous
slots under one flow-control check and publishes them as at most two
contiguous multi-line NT stores (split only at the ring wrap);
:meth:`RingReceiver.drain` consumes every ready slot in one poll pass
with a single progress publish per batch.  Per-slot CRC/poison
containment is preserved: a damaged slot inside a batch is skipped and
counted without aborting the rest of the batch.  :meth:`RingSender.send`
is a burst of one through the same loop, and a one-slot run is one
single-line NT store, so batching never perturbs the Figure 4
single-message latency.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.cxl.address import CACHELINE_BYTES
from repro.cxl.coherence import SharedRegion
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.link import LinkDownError
from repro.cxl.params import (
    LINK_RETRY_POLL_NS,
    RECV_POLL_NS,
    RING_FULL_POLL_NS,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.sim.errors import SimError

#: seq tag, payload length, CRC32 of (tag, length, payload).
_HEADER = struct.Struct("<BHI")
#: Maximum payload carried by one slot.
SLOT_PAYLOAD_BYTES = CACHELINE_BYTES - _HEADER.size
#: Sequence tags cycle through 1..250 (0 means "never written").
_SEQ_PERIOD = 250

_PROGRESS = struct.Struct("<Q")

#: CRC32 of the 3-byte (seq, length) header prefix, memoized per
#: ``(seq << 6) | length`` — seq cycles 1..250 and length <= 57, so the
#: table tops out at a few thousand small ints.  Chaining the payload
#: through ``zlib.crc32(payload, prefix)`` makes the per-slot checksum
#: allocation-free: no ``bytes((seq,)) + ... + payload`` concatenation.
_CRC_PREFIX: dict[int, int] = {}
_PREFIX_PACK = struct.Struct("<BH").pack


def _slot_crc(seq: int, payload: bytes) -> int:
    key = (seq << 6) | len(payload)
    prefix = _CRC_PREFIX.get(key)
    if prefix is None:
        prefix = _CRC_PREFIX[key] = zlib.crc32(
            _PREFIX_PACK(seq, len(payload))
        )
    return zlib.crc32(payload, prefix)


class RingSaturatedError(RuntimeError):
    """A bounded blocking send waited past its deadline on a full ring.

    Deliberately *not* a :class:`LinkDownError` subclass: a saturated
    ring is overload, not a transport fault, and must never feed the
    link-retry ladders that would amplify it.  Callers shed the work or
    surface a typed overload failure instead.  Only raised when the
    caller opted in with ``deadline_ns``; control rings keep the
    unbounded default.
    """

    def __init__(self, ring_name: str, deadline_ns: float):
        super().__init__(
            f"ring {ring_name}: still full at deadline "
            f"{deadline_ns:.0f} ns"
        )
        self.deadline_ns = deadline_ns


class ChannelRetiredError(LinkDownError):
    """The ring's backing memory was freed; this half is permanently dead.

    Subclasses :class:`LinkDownError` so every existing containment site
    (RPC retry loops, dispatcher backoff, netstack fault paths) treats a
    retired channel like a dead link.  Raising — instead of silently
    writing — matters: after a channel rebuild the old allocation may
    already back someone else's ring, and a stale in-flight sender would
    otherwise scribble CRC-valid frames into recycled memory.
    """

    def __init__(self, ring_name: str):
        SimError.__init__(self, f"ring {ring_name}: channel retired")
        self.link = None


class SlotCorruptionError(SimError):
    """A ring slot was damaged in pool memory (poison or failed CRC).

    The damage was *detected* — the message is lost but never delivered
    corrupt.  The receiver has already advanced past the slot when this
    raises; callers recover end-to-end (RPC retransmit).
    """

    def __init__(self, ring_name: str, slot_number: int, reason: str):
        super().__init__(
            f"ring {ring_name}: slot {slot_number} corrupt ({reason})"
        )
        self.slot_number = slot_number
        self.reason = reason


@dataclass(frozen=True)
class RingLayout:
    """Geometry of a ring within its shared region."""

    n_slots: int

    @property
    def progress_offset(self) -> int:
        return 0

    def slot_offset(self, index: int) -> int:
        return CACHELINE_BYTES * (1 + index)

    @property
    def region_bytes(self) -> int:
        return CACHELINE_BYTES * (1 + self.n_slots)


class RingChannel:
    """Factory tying one shared allocation to a sender and a receiver."""

    def __init__(self, sender_region: SharedRegion,
                 receiver_region: SharedRegion, n_slots: int = 64):
        if n_slots < 2:
            raise ValueError(f"ring needs >= 2 slots, got {n_slots}")
        layout = RingLayout(n_slots)
        for region in (sender_region, receiver_region):
            if region.size < layout.region_bytes:
                raise ValueError(
                    f"shared region of {region.size} B too small for "
                    f"{n_slots}-slot ring ({layout.region_bytes} B)"
                )
        if sender_region.base != receiver_region.base:
            raise ValueError(
                "sender and receiver regions must map the same allocation"
            )
        self.layout = layout
        self.sender = RingSender(sender_region, layout)
        self.receiver = RingReceiver(receiver_region, layout)
        self.sender.peer = self.receiver
        #: Filled in by :meth:`over_pod` for recovery bookkeeping.
        self.alloc = None
        self.mhd_index: int | None = None

    def retire(self) -> None:
        """Permanently kill both halves (called before freeing memory)."""
        self.sender.retired = True
        self.receiver.retired = True

    @classmethod
    def over_pod(cls, pod, sender_host: str, receiver_host: str,
                 n_slots: int = 64, label: str = "") -> "RingChannel":
        """Allocate pool memory and build a ring between two hosts.

        λ-redundant placement: the ring is *confined* to a single healthy
        MHD (round-robin across devices), so losing one MHD kills only the
        channels that lived on it — never all of them at once — and the
        survivors carry the recovery traffic.
        """
        layout = RingLayout(n_slots)
        alloc = pod.allocate_confined(
            layout.region_bytes,
            owners=[sender_host, receiver_host],
            label=label or f"ring:{sender_host}->{receiver_host}",
        )
        channel = cls(
            SharedRegion(pod.host(sender_host), alloc),
            SharedRegion(pod.host(receiver_host), alloc),
            n_slots=n_slots,
        )
        channel.alloc = alloc
        channel.mhd_index = pod.mhd_of(alloc.range.base)
        return channel


def _seq_for_pass(pass_number: int) -> int:
    return 1 + pass_number % _SEQ_PERIOD


class RingSender:
    """Producer side: owns the head counter."""

    def __init__(self, region: SharedRegion, layout: RingLayout):
        self.region = region
        self.layout = layout
        self._head = 0          # messages sent
        self._known_consumed = 0  # receiver progress we last observed
        self.sent = 0
        # Link-flap tolerance: a slot index is reserved *before* the NT
        # store, so abandoning a send would leave an unwritten hole that
        # wedges the receiver's FIFO seq expectations.  Instead, the store
        # of the reserved slot is retried across short link outages (like
        # a PCIe replay buffer, but at flap timescales).
        self.link_retry_poll_ns = LINK_RETRY_POLL_NS
        self.max_link_retries = 20_000
        self.link_retries = 0
        # RAS telemetry: poisoned progress line observed (and scrubbed).
        self.poison_hits = 0
        #: Set when the channel's memory is freed: all sends must fail.
        self.retired = False
        #: Gray-failure demotion: while set, bursts send one slot per
        #: chunk.  On fail-slow media a multi-line NT store serializes
        #: behind every stretched line; single-slot stores keep
        #: per-message tail latency bounded at the cost of batching.
        self.degraded = False
        #: The receiving half, linked by :class:`RingChannel`: every
        #: publish is announced to it (:meth:`_announce`).
        self.peer: RingReceiver | None = None
        # Ring-full stalls observed.
        self.full_events = 0
        # Bounded sends that hit their deadline while still full —
        # counted apart from full_events (a stall that *resolved* is
        # congestion; a stall that hit its deadline is saturation).
        self.saturated_events = 0
        _obs.METRICS.counter(_names.RING_SATURATED_EVENTS)

    @property
    def backlog(self) -> int:
        """Messages in flight as of the last progress observation."""
        return self._head - self._known_consumed

    def send(self, payload: bytes, ctx=None,
             deadline_ns: float | None = None):
        """Process: enqueue ``payload`` (<= 57 B), blocking while full.

        A burst of one: the returned process is :meth:`_send`, the
        reservation loop behind :meth:`send_burst`, under a
        ``ring.send`` span.

        Safe for multiple sender *processes* on the same host: the slot
        index is reserved synchronously before any yield, so concurrent
        sends never write the same slot.

        ``ctx`` (a :class:`~repro.obs.context.SpanContext` or span) links
        the slot span into the caller's trace when tracing is enabled;
        it never touches the wire — trace propagation is the payload's
        business (the RPC layer wraps an envelope).

        ``deadline_ns`` (absolute sim time) bounds the ring-full wait:
        past it the send raises :class:`RingSaturatedError` instead of
        waiting forever.  Only the *wait* is bounded — once a slot is
        reserved the store always completes (abandoning a reserved slot
        would wedge the receiver's FIFO seq expectations).
        """
        return self._send((payload,), "ring.send", ctx, deadline_ns)

    def send_burst(self, payloads, ctx=None,
                   deadline_ns: float | None = None):
        """Process: enqueue several payloads, batching the per-slot costs.

        Each contiguous chunk of the burst pays *one* flow-control check
        (blocking while the ring is full, like :meth:`send`) and is
        published as at most two contiguous multi-line NT stores — split
        only where the chunk wraps around the ring end.  A burst larger
        than the free space proceeds in ring-sized chunks.  Safe for
        multiple sender processes on one host: every chunk's slot range
        is reserved synchronously before any yield.  Returns the number
        of messages sent (= ``len(payloads)``).

        ``deadline_ns`` bounds every chunk's ring-full wait like
        :meth:`send`; a mid-burst :class:`RingSaturatedError` leaves the
        already-reserved chunks published (the return value is never
        partial — the exception is the only signal).
        """
        return self._send(payloads, "ring.send_burst", ctx, deadline_ns)

    def _send(self, payloads, span_name: str, ctx,
              deadline_ns: float | None):
        """Process: the one reservation loop behind :meth:`send` and
        :meth:`send_burst`; returns the number of messages sent.

        Each chunk blocks until at least one slot is free, then reserves
        as many as fit.  While :attr:`degraded`, a chunk is one slot and
        each slot notes its own ring-full stall, as separate sends would.
        """
        payloads = tuple(payloads)
        for payload in payloads:
            if len(payload) > SLOT_PAYLOAD_BYTES:
                raise ValueError(
                    f"payload of {len(payload)} B exceeds slot capacity "
                    f"{SLOT_PAYLOAD_BYTES} B; use the fragmentation layer"
                )
        total = len(payloads)
        if not total:
            return 0
        sim = self.region.memsys.sim
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                span_name, sim.now,
                track=f"{self.region.memsys.host_id}/ring",
                parent=ctx, cat="ring",
            )
        n_slots = self.layout.n_slots
        degraded = self.degraded
        retries_before = self.link_retries
        sent = 0
        stalled = False
        wait_ns = 0.0
        try:
            while sent < total:
                chunk_entered_ns = sim.now
                if degraded:
                    stalled = False
                while True:
                    if self.retired:
                        raise ChannelRetiredError(
                            self.region.memsys.host_id
                        )
                    free = n_slots - (self._head - self._known_consumed)
                    if free > 0:
                        break
                    if not stalled:
                        stalled = True
                        self._note_full()
                    if deadline_ns is not None and sim.now >= deadline_ns:
                        self._note_saturated()
                        raise RingSaturatedError(
                            self.region.memsys.host_id, deadline_ns
                        )
                    try:
                        yield from self._refresh_progress()
                    except LinkDownError:
                        self.link_retries += 1
                        yield sim.timeout(self.link_retry_poll_ns)
                        continue
                    if self._head - self._known_consumed < n_slots:
                        continue
                    yield sim.timeout(RING_FULL_POLL_NS)
                wait_ns += sim.now - chunk_entered_ns
                take = 1 if degraded else min(free, total - sent)
                first = self._head
                self._head += take  # reserve the whole chunk before yielding
                self._note_occupancy()
                end = sent + take
                while sent < end:
                    # One NT store per run: a chunk splits only where it
                    # wraps the ring end.
                    run = min(end - sent, n_slots - first % n_slots)
                    yield from self._publish(first,
                                             payloads[sent:sent + run])
                    first += run
                    sent += run
        finally:
            if span is not None:
                if wait_ns > 0.0:
                    # Time stalled on a full ring before the slots were
                    # reserved: queueing, not transit, for the attributor.
                    span.set(ph_queueing_ns=wait_ns)
                tracer.end(span, sim.now, sent=sent,
                           link_retries=self.link_retries - retries_before)
        return sent

    def _publish(self, first_slot: int, payloads):
        """Process: make reserved consecutive slots readable with one NT
        store, retried across link flaps: a single-line store for one
        slot, a multi-line burst for more (its lines land in commit
        order, each one atomic)."""
        n_slots = self.layout.n_slots
        count = len(payloads)
        lines = bytearray(CACHELINE_BYTES * count)
        for i, payload in enumerate(payloads):
            seq = _seq_for_pass((first_slot + i) // n_slots)
            base = CACHELINE_BYTES * i
            _HEADER.pack_into(lines, base, seq, len(payload),
                              _slot_crc(seq, payload))
            lines[base + _HEADER.size:base + _HEADER.size + len(payload)] \
                = payload
        frame = bytes(lines)
        store = (self.region.publish if count == 1
                 else self.region.publish_bulk)
        offset = self.layout.slot_offset(first_slot % n_slots)
        sim = self.region.memsys.sim
        attempts = 0
        while True:
            if self.retired:
                raise ChannelRetiredError(self.region.memsys.host_id)
            try:
                yield from store(offset, frame)
                break
            except LinkDownError:
                attempts += 1
                if attempts > self.max_link_retries:
                    raise
                self.link_retries += 1
                yield sim.timeout(self.link_retry_poll_ns)
        self.sent += count
        self._announce()

    def _announce(self) -> None:
        """Record the publish count on the receiver and wake its poller.

        The slots are *committed* but land at the media one store
        latency later: an awake receiver compares ``published`` with its
        consumed count and keeps polling across that window instead of
        parking.
        """
        peer = self.peer
        peer.published = self.sent
        wake = peer.wake
        if wake is not None and not wake.triggered:
            wake.succeed()

    def _note_full(self) -> None:
        self.full_events += 1
        _obs.METRICS.counter(_names.RING_FULL_EVENTS).inc()

    def _note_saturated(self) -> None:
        self.saturated_events += 1
        _obs.METRICS.counter(_names.RING_SATURATED_EVENTS).inc()

    def _note_occupancy(self) -> None:
        _obs.METRICS.gauge(_names.RING_OCCUPANCY).set(
            self._head - self._known_consumed
        )

    def _refresh_progress(self):
        try:
            raw = yield from self.region.consume_uncached(
                self.layout.progress_offset, _PROGRESS.size
            )
        except PoisonedMemoryError:
            # The progress line itself is poisoned.  Scrub it with our own
            # conservative view of the consumed count (the receiver only
            # ever publishes larger values, and both sides take the max),
            # so a full-ring sender can never deadlock on a poisoned line.
            self.poison_hits += 1
            line = bytearray(CACHELINE_BYTES)
            _PROGRESS.pack_into(line, 0, self._known_consumed)
            yield from self.region.publish(
                self.layout.progress_offset, bytes(line)
            )
            return
        (consumed,) = _PROGRESS.unpack(raw)
        self._known_consumed = max(self._known_consumed, consumed)


class RingReceiver:
    """Consumer side: owns the tail counter, publishes progress."""

    def __init__(self, region: SharedRegion, layout: RingLayout):
        self.region = region
        self.layout = layout
        self._tail = 0
        self.received = 0
        # Publish progress every quarter ring: cheap enough to be
        # negligible, frequent enough that senders rarely stall.
        self.progress_every = max(1, layout.n_slots // 4)
        # A progress publish that hit a dead link is deferred, not lost:
        # the flag keeps the publish owed until a later poll succeeds, so
        # a flap can never deadlock a sender waiting for ring space.
        self._progress_dirty = False
        self.deferred_progress = 0
        #: The sender's count as of its last publish (written by
        #: :meth:`RingSender._announce`; it runs ahead of the slots that
        #: have landed at the media).
        self.published = 0
        #: The pending event a parked poller waits on; None while awake.
        #: The sender's next publish triggers it.
        self.wake = None
        #: Set when the channel's memory is freed: all receives must fail.
        self.retired = False
        #: Gray-failure demotion: while set, :meth:`drain` consumes
        #: slot-at-a-time instead of streaming window reads (see
        #: :attr:`RingSender.degraded`).
        self.degraded = False
        # RAS telemetry: detected-and-discarded slots.
        self.poison_hits = 0
        self.crc_rejects = 0
        self.lost_slots = 0
        #: Positions of slots lost during the most recent :meth:`drain`:
        #: entry ``i`` means a damaged slot sat between payload ``i-1``
        #: and payload ``i`` of that drain's return value.  Ordered
        #: callers (the fragmentation layer) use this to avoid stitching
        #: a message across the hole.
        self.last_drain_losses: list[int] = []

    @property
    def consumed(self) -> int:
        """Slots consumed so far (delivered + damaged-and-skipped).

        Compared against :attr:`published` by parking pollers: sender
        ahead means a message is in flight or ready, and no later publish
        may come to wake a poller that parked on it.
        """
        return self._tail

    def try_recv(self):
        """Process: poll the current slot once; returns payload or None.

        Raises :class:`SlotCorruptionError` when the current slot is
        damaged (poisoned line or CRC mismatch).  The slot has already
        been consumed (tail advanced, loss counted) when that happens, so
        the ring keeps flowing; the *message* is lost and must be
        recovered end-to-end (RPC retransmit).
        """
        if self.retired:
            raise ChannelRetiredError(self.region.memsys.host_id)
        if self._progress_dirty:
            yield from self._flush_progress()
        index = self._tail % self.layout.n_slots
        expect = _seq_for_pass(self._tail // self.layout.n_slots)
        slot_number = self._tail
        try:
            raw = yield from self.region.consume_uncached(
                self.layout.slot_offset(index), CACHELINE_BYTES
            )
        except PoisonedMemoryError as exc:
            # The media refused the read: uncorrectable damage, detected.
            # Advance past the slot — the sender's next pass overwrites
            # (and thereby scrubs) the line.
            self.poison_hits += 1
            self._trace_corruption(slot_number, "poisoned line")
            yield from self._consume_damaged()
            raise SlotCorruptionError(
                self.region.memsys.host_id, slot_number, "poisoned line"
            ) from exc
        seq, length, crc = _HEADER.unpack_from(raw, 0)
        if seq != expect:
            return None
        payload = bytes(raw[_HEADER.size:_HEADER.size + length])
        if length > SLOT_PAYLOAD_BYTES or _slot_crc(seq, payload) != crc:
            self.crc_rejects += 1
            self._trace_corruption(slot_number, "CRC mismatch")
            yield from self._consume_damaged()
            raise SlotCorruptionError(
                self.region.memsys.host_id, slot_number, "CRC mismatch"
            )
        self._tail += 1
        self.received += 1
        if self._tail % self.progress_every == 0:
            self._progress_dirty = True
            yield from self._flush_progress()
        return payload

    def _trace_corruption(self, slot_number: int, reason: str) -> None:
        """Instant on the receiver's lane: chaos shows up inline."""
        tracer = _obs.TRACER
        if tracer.enabled:
            memsys = self.region.memsys
            tracer.instant(
                "ring.slot_corrupt", memsys.sim.now,
                track=f"{memsys.host_id}/ring", cat="ras",
                args={"slot": slot_number, "reason": reason},
            )

    def _consume_damaged(self):
        """Advance past a damaged slot, keeping flow control honest."""
        self._tail += 1
        self.lost_slots += 1
        if self._tail % self.progress_every == 0:
            self._progress_dirty = True
            yield from self._flush_progress()

    def recv(self, poll_overhead_ns: float = RECV_POLL_NS):
        """Process: busy-poll until a message arrives; returns payload.

        ``poll_overhead_ns`` models the CPU work between polls (branch,
        slot parse) on top of the CXL read itself.
        """
        sim = self.region.memsys.sim
        while True:
            payload = yield from self.try_recv()
            if payload is not None:
                return payload
            yield sim.timeout(poll_overhead_ns)

    def drain(self):
        """Process: consume every ready slot in one poll pass.

        Returns the list of delivered payloads (possibly empty).  The
        first slot is polled exactly like :meth:`try_recv` — a drain
        that finds nothing (or one message) costs the same as the
        legacy path — and any further ready slots are consumed through
        streaming uncached window reads, paying one leading miss per
        contiguous run instead of one per slot.  Progress is published
        once per non-empty batch.

        Per-slot damage containment is preserved: a CRC-damaged slot
        inside a window is counted (``crc_rejects``/``lost_slots``) and
        skipped without aborting the batch, and a poisoned line demotes
        that window to slot-at-a-time consumption so only the damaged
        slot is lost.  Unlike :meth:`try_recv`, drain never raises
        :class:`SlotCorruptionError` — batch callers read the loss
        counters (and :attr:`last_drain_losses` for hole positions)
        instead.

        A link that goes down partway through a batch loses nothing:
        the slots consumed before it are returned, and the next poll
        meets the dead link.
        """
        if self.retired:
            raise ChannelRetiredError(self.region.memsys.host_id)
        losses = self.last_drain_losses = []
        if self._progress_dirty:
            yield from self._flush_progress()
        out: list[bytes] = []
        tail = self._tail
        try:
            yield from self._consume(out, losses)
        except LinkDownError:
            if self._tail == tail:
                raise
            # The consumed slots have left the ring: hand them over.
        # One coalesced progress publish per batch, at the legacy
        # quarter-ring cadence (the per-slot probes flush their own
        # boundaries inside try_recv).
        if self._progress_dirty:
            yield from self._flush_progress()
        return out

    def _consume(self, out: list, losses: list):
        """Process: :meth:`drain`'s pass over up to one ring of ready slots."""
        n = self.layout.n_slots
        drained = 0
        if self.degraded:
            # Demoted: no streaming window reads over fail-slow media.
            while drained < n:
                if not (yield from self._drain_one(out, losses)):
                    break
                drained += 1
            return
        # Probe slot-at-a-time until two messages are in hand: the
        # common empty and one-deep wakeups cost what the legacy
        # single-slot poll costs (plus one miss probe to learn the
        # burst ended); only a backlog of >= 2 pays for a streaming
        # window read.
        while drained < min(n, 2):
            if not (yield from self._drain_one(out, losses)):
                return
            drained += 1
        while drained < n:
            index = self._tail % n
            window = min(n - drained, n - index)
            if window == 1:
                if not (yield from self._drain_one(out, losses)):
                    break
                drained += 1
                continue
            try:
                raw = yield from self.region.consume_uncached_bulk(
                    self.layout.slot_offset(index),
                    window * CACHELINE_BYTES,
                )
            except PoisonedMemoryError:
                # Some line in the window is poisoned; fall back to
                # slot-at-a-time so only the damaged slot is lost.
                progressed = False
                for _ in range(window):
                    if not (yield from self._drain_one(out, losses)):
                        break
                    progressed = True
                    drained += 1
                if not progressed:
                    break
                continue
            stopped = False
            for i in range(window):
                expect = _seq_for_pass(self._tail // n)
                base = CACHELINE_BYTES * i
                seq, length, crc = _HEADER.unpack_from(raw, base)
                if seq != expect:
                    stopped = True
                    break
                payload = bytes(
                    raw[base + _HEADER.size:base + _HEADER.size + length]
                )
                if (length > SLOT_PAYLOAD_BYTES
                        or _slot_crc(seq, payload) != crc):
                    self.crc_rejects += 1
                    self._trace_corruption(self._tail, "CRC mismatch")
                    self._tail += 1
                    self.lost_slots += 1
                    losses.append(len(out))
                    drained += 1
                    if self._tail % self.progress_every == 0:
                        self._progress_dirty = True
                    continue
                self._tail += 1
                self.received += 1
                out.append(payload)
                drained += 1
                if self._tail % self.progress_every == 0:
                    self._progress_dirty = True
            if stopped:
                break

    def _drain_one(self, out: list, losses: list) -> bool:
        """Process: consume one slot for :meth:`drain`.

        Appends a delivered payload to ``out`` (a skipped damaged slot
        records its position in ``losses`` instead).  Returns True when
        the batch should keep going (payload delivered or damaged slot
        skipped-and-counted), False when no further slot is ready.
        """
        try:
            payload = yield from self.try_recv()
        except SlotCorruptionError:
            losses.append(len(out))
            return True  # consumed, counted; keep draining
        if payload is None:
            return False
        out.append(payload)
        return True

    def _flush_progress(self):
        try:
            yield from self._publish_progress()
            self._progress_dirty = False
        except LinkDownError:
            self.deferred_progress += 1

    def _publish_progress(self):
        line = bytearray(CACHELINE_BYTES)
        _PROGRESS.pack_into(line, 0, self._tail)
        yield from self.region.publish(
            self.layout.progress_offset, bytes(line)
        )
