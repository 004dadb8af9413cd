"""Pooled queue-pair client: one ring protocol for every pooled device.

§4's device-compatibility claim is that one software mechanism pools any
device driven by a descriptor ring: the submission ring, the completion
queue (CQ) and the data buffers live in shared CXL pool memory, owned by
both ends, and the ring's doorbell is forwarded over a ring channel to
the owner host.  §5 reuses the mechanism for accelerators.
:class:`PooledQueueClient` is that mechanism on the borrower side; the
SSD and accelerator clients subclass it and add only their register
setup and their op methods.

* **Journal.**  Every submitted entry is journaled client-side
  (:class:`_PendingOp`) until its completion is observed.  Devices run
  entries in parallel, so completions arrive in completion order and an
  on-demand collector matches them to waiters by submission index.
* **Doorbell frontier.**  Only contiguously-written ring entries are
  exposed to the device, or a fast second submitter could make the
  device fetch a slot its neighbour is still writing.
* **Hedging.**  An op older than the hedge deadline but younger than the
  op timeout has its doorbell re-rung with a refreshed token
  (:class:`~repro.datapath.proxy.DoorbellRecovery`).
* **Failover (§4.2).**  When the owner host dies mid-I/O the client
  (a) harvests completions the dying owner already wrote — the CQ lives
  in pool memory, which outlives the owner — then (b) re-establishes
  fresh rings against the successor and resubmits only the unfinished
  entries.  Callers blocked inside an op never see the handover: their
  completion event fires exactly once, from whichever owner finished
  the entry.
"""

from __future__ import annotations

import dataclasses

from repro.channel.rpc import RpcError
from repro.cxl.link import LinkDownError
from repro.cxl.params import LINK_RETRY_POLL_NS
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.proxy import (
    DeviceGoneError,
    DeviceWithdrawnError,
    DoorbellRecovery,
)
from repro.obs import runtime as _obs
from repro.obs.trace import add_phase_ns
from repro.pcie.rings import (
    COMPLETION_BYTES,
    INDEX_SPACE,
    CompletionEntry,
    DescriptorRing,
)
from repro.sim.grid import on_grid

#: What a lost doorbell or register access raises.  The ops stay
#: journaled; the watchdog (or the pool's migration hook) recovers them
#: on the successor.
_TRANSPORT_ERRORS = (RpcError, LinkDownError, DeviceGoneError)


@dataclasses.dataclass
class _PendingOp:
    """Client-side journal entry for one in-flight ring entry.

    ``order`` is fixed at first submission so failover can resubmit in
    the original order; ``index`` is remapped onto the successor's fresh
    ring.  The waiter is the caller's completion event — it survives any
    number of failovers and fires exactly once.
    """

    order: int
    index: int
    #: The ring entry (NVMe command, job descriptor), re-posted verbatim
    #: on failover: its buffer addresses stay valid pool memory.
    entry: object
    waiter: object
    submitted_ns: float
    #: The caller's op span: a failover resubmission posts under it, so
    #: the successor-side events join the original I/O's trace.
    span: object = None
    #: Whether this op holds an AIMD pacer slot (released exactly once,
    #: at completion or when the op is de-journaled).
    paced: bool = False
    #: Where the device writes this op's result, for devices that write
    #: one per ring slot (see :meth:`PooledQueueClient._bind_output`).
    out_addr: int | None = None


class _CqPark:
    """A collector parked on its polling loop's virtual grid.

    ``next_ns`` is the loop's first read after the park; ``steps`` are
    its two timeouts, the read's latency and then the poll sleep, so
    the grid's points are each read's issue and its return.  ``cancel``
    withdraws the line and link watches that wake it.
    """

    __slots__ = ("wake", "next_ns", "steps", "cancel")

    def __init__(self, wake, next_ns: float, steps: tuple, cancel):
        self.wake = wake
        self.next_ns = next_ns
        self.steps = steps
        self.cancel = cancel


class PooledQueueClient(DoorbellRecovery):
    """Borrower-side driver for one pooled descriptor-ring device.

    A subclass supplies the class constants below and those of
    :class:`DoorbellRecovery`, :meth:`setup` (point the device's ring
    registers at this generation's regions, then set ``_configured``),
    the hooks :meth:`_alloc_regions`, :meth:`_noop_entry` and optionally
    :meth:`_bind_output`, and its op methods, built from
    :meth:`_pace_and_reserve`, :meth:`_submit` and :meth:`_completion`.
    A single op is a batch of one.
    """

    #: Bytes per submission-ring entry.
    ENTRY_BYTES: int
    #: Collector poll period while the CQ head entry is unwritten.
    CQ_POLL_NS: float
    #: Waiter events are named ``<client>.<stem><index>``.
    WAITER_STEM: str
    #: Counter names (``repro.obs.names``).
    METRIC_FAILOVERS: str
    METRIC_RESUBMITTED: str
    METRIC_OP_TIMEOUTS: str

    def __init__(self, sim, memsys, handle, pod, owner_host: str,
                 n_entries: int, name: str, op_timeout_ns: float,
                 hedge_deadline_ns: float, budget, pacer):
        self.sim = sim
        self.memsys = memsys
        self.handle = handle
        self.n_entries = n_entries
        self.name = name
        self.op_timeout_ns = op_timeout_ns
        # Overload control (both optional; None = pre-overload behavior).
        # ``budget`` is the per-client-host retry budget: hedges draw
        # from it softly, failover replays drain it unconditionally, and
        # every completion deposits the goodput dividend.  ``pacer`` is
        # the AIMD window fed by occupancy piggybacked on CQ entries;
        # submissions wait for a window slot *before* journaling, so a
        # paced-out op never leaves a journal entry behind.
        self.budget = budget
        self.pacer = pacer
        # Deadline hedging: an op older than this (but younger than the
        # full op timeout) gets its doorbell re-rung with a refreshed
        # token.  Doorbells are max()-semantics MMIO and forwarded ops
        # carry journal-dedup'd op ids, so a hedge can never duplicate
        # work — the cost of hedging a gray (slow-but-alive) owner is one
        # extra channel message.
        self.hedge_deadline_ns = hedge_deadline_ns
        #: The pool assignment this client serves (set by the pool).
        self.assignment = None
        # Rings and data buffers must be visible to the device's host,
        # so they always live in the pool, owned by both ends.
        self.mem = DriverMemory(
            memsys, pod, BufferPlacement.CXL,
            owners=sorted({memsys.host_id, owner_host}),
            label=name,
        )
        self.generation = 0
        self._carve("")
        self._tail = 0
        self._cq_head = 0
        self._configured = False
        self._pending: dict[int, _PendingOp] = {}
        self._order = 0
        self._collector = None
        #: The collector's park while it waits out an empty CQ head.
        self._cq_park: _CqPark | None = None
        self._watchdog_proc = None
        self._failing_over = None
        # Doorbell frontier: written entries past a gap wait in
        # ``_sq_written`` until the gap fills.
        self._sq_written: set[int] = set()
        self._sq_ready = 0
        self.ops_submitted = 0
        self.ops_completed = 0
        self.failovers = 0
        self.resubmitted = 0
        self.op_timeouts = 0
        super().__init__()

    # -- device hooks --------------------------------------------------------

    def _alloc_regions(self, suffix: str) -> None:
        """Carve this generation's ring and buffer regions from ``mem``,
        labelled with ``suffix``; must set ``sq_base`` and ``cq_base``."""
        raise NotImplementedError

    def _carve(self, suffix: str) -> None:
        """Allocate this generation's regions and its CQ's geometry."""
        self._alloc_regions(suffix)
        self._cq = DescriptorRing(self.cq_base, self.n_entries,
                                  entry_bytes=COMPLETION_BYTES)

    def _noop_entry(self):
        """A ring entry the device completes without side effects."""
        raise NotImplementedError

    def _bind_output(self, op: _PendingOp) -> None:
        """Point ``op`` at this generation's result slot for its index
        (devices that write results into a per-slot output region)."""

    # -- op building blocks --------------------------------------------------

    def _pace_and_reserve(self, span, count: int = 1):
        """Process: claim ``count`` pacer slots, then reserve ``count``
        contiguous submission indices; returns ``(first, paced)``.

        Pace *before* reserving: a paced-out submitter holding a ring
        slot would wedge the doorbell frontier behind its unwritten
        entry, while its window slot waits on completions that can only
        come from entries past the wedge — deadlock until the op-timeout
        watchdog fails over.
        """
        t_pace = self.sim.now
        paced = yield from self._pace(count)
        add_phase_ns(span, "ph_pacing_ns", self.sim.now - t_pace)
        try:
            first = self._reserve(count)
        except BaseException:
            self._release_pacing(paced, count)
            raise
        return first, paced

    def _reserve(self, count: int) -> int:
        """Synchronously reserve ``count`` contiguous submission indices.

        No yield separates the depth check from the reservation, so a
        concurrent submitter can neither oversubscribe the ring nor
        interleave into a burst's index range.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        free = self.n_entries - (self._tail - self._cq_head)
        if count > free:
            raise RuntimeError(
                f"{self.name}: ring full (request of {count} exceeds free "
                f"depth {free} of {self.n_entries})"
            )
        first = self._tail
        self._tail += count
        return first

    def _journal(self, index: int, entry, span, paced: bool) -> _PendingOp:
        """Journal one entry under a fresh waiter; returns its op."""
        waiter = self.sim.event(name=f"{self.name}.{self.WAITER_STEM}{index}")
        op = _PendingOp(order=self._order, index=index, entry=entry,
                        waiter=waiter, submitted_ns=self.sim.now,
                        span=span, paced=paced)
        self._bind_output(op)
        self._order += 1
        self._pending[index % INDEX_SPACE] = op
        self.ops_submitted += 1
        return op

    def _submit(self, first: int, staged, span, paced: bool):
        """Process: copy, journal and expose a reserved batch behind one
        fence and one doorbell; returns its ops in submission order.

        ``staged`` holds one ``(buffer_addr, payload, entry)`` per index
        from ``first``; a ``None`` payload (a read, a flush) copies
        nothing.  Every payload is copied and then every op journaled,
        then :meth:`_post` writes the ring entries, fences once and
        rings one forwarded doorbell — N entries per channel message
        instead of one.  Each op is journaled individually, so a
        failover mid-batch resubmits only the unfinished ones.  A
        failover that starts during the copies rebuilt the rings under
        the batch, so it waits that failover out and reserves afresh on
        the successor's ring: ops are journaled and posted under indices
        of the generation they are posted in.  A failed write unwinds
        the whole batch (:meth:`_abandon_burst`), so its unwritten
        indices cannot stall the doorbell frontier.
        """
        ops: list[_PendingOp] = []
        gen = self.generation
        try:
            t_link = self.sim.now
            for addr, data, _entry in staged:
                if data is not None:
                    yield from self.mem.write(addr, data)
            if gen != self.generation:
                while self._failing_over is not None:
                    yield self._failing_over
                first, gen = self._reserve(len(staged)), self.generation
            # Journal before posting: a failover racing the post
            # resubmits from the journal even if the post below never
            # reached the dying owner.
            ops.extend(self._journal(first + offset, entry, span, paced)
                       for offset, (_addr, _data, entry) in enumerate(staged))
            add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
            yield from self._post(ops, parent=span)
        except BaseException:
            # The caller observes this failure, so the batch is not in
            # flight.  This covers typed overload refusals
            # (OverloadError, RetryBudgetExhausted) exactly like
            # transport errors: a budget-denied post must de-journal its
            # op ids, or failover would replay ops whose caller already
            # saw them fail.
            self._abandon_burst(first, len(staged), ops, gen, paced)
            raise
        self._ensure_daemons()
        return ops

    def _completion(self, op: _PendingOp):
        """Process: wait for ``op``'s completion entry and return it."""
        t_device = self.sim.now
        comp = yield op.waiter
        add_phase_ns(op.span, "ph_device_ns", self.sim.now - t_device)
        return comp

    def _abandon_burst(self, first: int, count: int, ops, gen: int,
                       paced: bool) -> None:
        """Unwind a batch whose caller is about to see it fail."""
        # None of the batch is in flight: return every pacer slot it
        # claimed, journaled or not.
        for op in ops:
            self._dejournal(op)
        self._release_pacing(paced, count - len(ops))
        if gen != self.generation:
            return  # failover rebuilt the rings
        if self._tail == first + count:
            # No later reservation: the whole batch unwinds and the
            # doorbell frontier never sees it.
            self._tail = first
        else:
            # Concurrent submitters reserved past us, so the abandoned
            # indices must be neutralized or _sq_ready could never
            # advance past them and every later doorbell would expose
            # nothing new.
            self.sim.spawn(self._neutralize_abandoned(first, count, gen),
                           name=f"{self.name}.neutralize")

    def _dejournal(self, op: _PendingOp) -> None:
        """Drop a journaled op whose caller is about to see it fail.

        It is not in flight: deregister it or the daemons would idle,
        and return its pacer slot.  A collector parked on the journal it
        empties is woken where its loop would next have checked it.
        """
        self._pending.pop(op.index % INDEX_SPACE, None)
        self._release_slot(op)
        if not self._pending:
            self._wake_collector()

    # -- pacing --------------------------------------------------------------

    def _pace(self, count: int = 1):
        """Process: wait until the AIMD window grants ``count`` slots
        together; returns whether any were claimed."""
        if self.pacer is None:
            return False
        yield from self.pacer.wait_for_slot(self.sim, count)
        return True

    def _release_slot(self, op: _PendingOp) -> None:
        """Return ``op``'s pacer slot exactly once."""
        if op.paced:
            op.paced = False
            if self.pacer is not None:
                self.pacer.release()

    def _release_pacing(self, paced: bool, count: int = 1) -> None:
        """Return pacer slots claimed before an op object existed."""
        if paced and self.pacer is not None:
            self.pacer.release(count)

    # -- ring protocol -------------------------------------------------------

    def _entry_addr(self, index: int) -> int:
        return self.sq_base + (index % self.n_entries) * self.ENTRY_BYTES

    def _post(self, ops, parent=None):
        """Process: write ``ops``' ring entries, fence once and expose
        them via one doorbell."""
        gen = self.generation
        t_queue = self.sim.now
        for op in ops:
            yield from self.mem.write(self._entry_addr(op.index),
                                      op.entry.encode())
        yield from self.mem.fence()
        add_phase_ns(parent, "ph_queueing_ns", self.sim.now - t_queue)
        if gen != self.generation:
            return  # superseded mid-post; failover resubmits from journal
        self._expose(op.index for op in ops)
        yield from self._ring(parent=parent)

    def _expose(self, indices) -> bool:
        """Mark ring entries written and advance the doorbell frontier
        over the contiguous written prefix; returns whether it moved."""
        written = self._sq_written
        written.update(indices)
        start = self._sq_ready
        while self._sq_ready in written:
            written.remove(self._sq_ready)
            self._sq_ready += 1
        return self._sq_ready != start

    def _ring(self, parent=None):
        """Process: ring the doorbell at the frontier; a lost doorbell
        leaves the ops journaled."""
        try:
            yield from self.handle.ring_doorbell(0, self._sq_ready,
                                                 parent=parent)
        except _TRANSPORT_ERRORS:
            pass

    def _rering(self):
        """Process: re-resolve the owner (fresh endpoint and token) and
        re-ring the doorbell at the frontier."""
        self.handle.refresh()
        yield from self._ring()

    def _can_rering(self) -> bool:
        # A failover rebuilds the queues itself, and an empty journal
        # has nothing left to expose.
        return self._failing_over is None and bool(self._pending)

    def _neutralize_abandoned(self, first: int, count: int, gen: int):
        """Process: unwedge the doorbell frontier after a failed batch.

        The failed batch's indices were reserved but never entered
        ``_sq_written``, so ``_sq_ready`` would stall at ``first``
        forever while later submitters' entries sit unexposed.  Fill the
        abandoned ring slots with :meth:`_noop_entry` — the device
        completes it and the collector ignores the unknown index — then
        advance the frontier and re-ring so the stalled entries become
        visible.  Best effort: if the link is still down, the op-timeout
        watchdog's failover remains the backstop.
        """
        noop = self._noop_entry().encode()
        try:
            for index in range(first, first + count):
                if gen != self.generation:
                    return  # failover rebuilt the rings; nothing to fix
                yield from self.mem.write(self._entry_addr(index), noop)
            yield from self.mem.fence()
        except (RpcError, LinkDownError):
            return
        if gen != self.generation:
            return
        if self._expose(range(first, first + count)) and self._pending:
            yield from self._ring()

    # -- completions ---------------------------------------------------------

    def _ensure_daemons(self) -> None:
        if self._collector is None or not self._collector.is_alive:
            self._collector = self.sim.spawn(
                self._collect_completions(),
                name=f"{self.name}.collector",
            )
        if self._watchdog_proc is None or not self._watchdog_proc.is_alive:
            self._watchdog_proc = self.sim.spawn(
                self._watchdog(), name=f"{self.name}.watchdog",
            )

    def _complete(self, entry: CompletionEntry) -> None:
        op = self._pending.pop(entry.index, None)
        if op is not None and not op.waiter.triggered:
            self.ops_completed += 1
            self._progressed()
            self._release_slot(op)
            if self.pacer is not None:
                # Devices piggyback ring occupancy in the spare ``value``
                # field; fold it into the AIMD window.
                self.pacer.on_ack(entry.value, self.sim.now)
            if self.budget is not None:
                self.budget.on_success()
            op.waiter.succeed(entry)

    def _cq_slot(self) -> tuple[int, int]:
        """The CQ head entry's address and the seq tag it will carry."""
        head = self._cq_head
        return self._cq.entry_addr(head), self._cq.seq_of(head)

    def _reap_cq(self, gen: int):
        """Process: claim the CQ head entry if the device has written it;
        returns None if it did, else the entry's bytes as read.

        A read that failover overtook (the generation moved off ``gen``)
        is dropped unclaimed: it came from the old queues.
        """
        addr, expect = self._cq_slot()
        raw = yield from self.mem.read(addr, COMPLETION_BYTES)
        if gen != self.generation:
            return raw
        entry = CompletionEntry.decode(raw)
        if entry.seq != expect:
            return raw
        self._cq_head += 1
        self._complete(entry)
        return None

    def _collect_completions(self):
        """Drain CQ entries and wake the matching waiters.

        Runs only while entries are outstanding, then exits.  After an
        empty read it waits in :meth:`_park`.  A read that finds the CQ
        memory unreachable (a link flap, a failed MHD) backs off
        ``LINK_RETRY_POLL_NS`` and reads again; the op-timeout watchdog
        stays the backstop.
        """
        while self._pending:
            gen = self.generation
            try:
                sampled = yield from self._reap_cq(gen)
            except LinkDownError:
                yield self.sim.timeout(LINK_RETRY_POLL_NS)
                continue
            if sampled is not None and gen == self.generation:
                yield from self._park(sampled)

    def _park(self, sampled: bytes):
        """Process: wait out an empty CQ head, as the polling loop would.

        The loop sleeps ``CQ_POLL_NS`` after each empty read and reads
        again: its reads issue at ``s = park + CQ_POLL_NS``, then at
        ``(s + load_ns) + CQ_POLL_NS``.  The collector instead parks on
        that virtual grid and costs no event until something such a read
        sees changes: the head line, that line's link, or the journal
        and generation the loop re-checks.  It is then woken
        (:meth:`_wake_collector`) at the loop's next grid point: a
        read's issue, where it makes the loop's read, or a read's
        return, where the loop reads again at once if failover moved the
        generation and otherwise sleeps ``CQ_POLL_NS`` first.

        It parks only when that read could see nothing the watches miss:
        ops are journaled, no failover is moving the queues, the entry
        still holds the bytes the read ``sampled`` at its issue (an entry
        that landed while the read was in flight fires no watch), no
        store-buffer entry shadows the line, and its link is up and
        unjittered.  Otherwise it sleeps ``CQ_POLL_NS``, as the loop did.
        """
        addr, _expect = self._cq_slot()
        watch = None
        if (self._pending and self._failing_over is None
                and self.memsys.peek_uncached(addr, COMPLETION_BYTES)
                == sampled):
            watch = self.memsys.watch_load(addr, self._on_cq_line,
                                           self._wake_collector)
        if watch is None:
            yield self.sim.timeout(self.CQ_POLL_NS)
            return
        load_ns, cancel = watch
        gen = self.generation
        park = self._cq_park = _CqPark(
            self.sim.event("cq-wake"), self.sim.now + self.CQ_POLL_NS,
            (load_ns, self.CQ_POLL_NS), cancel)
        try:
            step = yield park.wake
        finally:
            self._cq_park = None
        if step == 1 and gen == self.generation:
            # Woken at a read's return, where the loop starts its sleep
            # (``steps[1]``) unless failover moved the generation.
            yield self.sim.timeout(self.CQ_POLL_NS)

    def _wake_collector(self, strict: bool = False) -> None:
        """Wake a parked collector at its loop's next grid point: the
        first at or after now, or strictly after it with ``strict``.

        A read's return is a grid point too, so one wake always does: a
        failover that starts while a read is in flight, even after an
        earlier wake, is seen where the loop sees it, when that read
        returns.  Spurious wakes are safe: the woken collector does
        exactly what the loop did at that point."""
        park = self._cq_park
        if park is None or park.wake.triggered:
            return
        park.cancel()
        on_grid(self.sim.now, park.next_ns, park.steps, strict, park.wake)

    def _on_cq_line(self) -> None:
        # Strictly after: a line that changes at a grid point changes
        # after that point's read.  The loop scheduled that read a whole
        # CQ_POLL_NS earlier; a device's CQ write is scheduled only the
        # store latency (< CQ_POLL_NS) before it lands.
        self._wake_collector(strict=True)

    def _watchdog(self, poll_ns: float = 10_000_000.0):
        """Process: detect a dead owner by stalled completions.

        The lease layer usually migrates the device (and the pool then
        calls :meth:`failover`) before this fires; the watchdog is the
        backstop for doorbells lost without any fence nack.

        Between the hedge deadline and the op timeout sits the *gray*
        band: the owner is alive but slow, so destroying the queues via
        failover would only add recovery latency.  There the watchdog
        hedges instead — it re-rings the doorbell at the current
        frontier.  Doorbells carry max() semantics and every entry is
        journaled server-side by op id, so a hedge that races the
        original delivery is absorbed without duplicating work; the
        streak bound keeps a permanently wedged owner from being hedged
        forever instead of failed over.
        """
        while self._pending:
            yield self.sim.timeout(poll_ns)
            if (not self._pending
                    or self._failing_over is not None
                    or not self.handle.is_remote):
                continue
            stalled = min(self._pending.values(),
                          key=lambda op: op.submitted_ns)
            age = self.sim.now - stalled.submitted_ns
            if age <= self.hedge_deadline_ns:
                continue
            if age <= self.op_timeout_ns:
                # Bill the hedge's transit to the stalled op's trace so
                # the attributor surfaces it under the hedge phase.
                yield from self._hedge(stalled.span, age_ns=age)
                continue
            self.op_timeouts += 1
            _obs.METRICS.counter(self.METRIC_OP_TIMEOUTS).inc()
            if _obs.RECORDER.enabled:
                # A stalled op crossing the timeout is exactly the
                # post-mortem moment the flight recorder exists for.
                _obs.RECORDER.trip(
                    "watchdog_op_timeout", self.sim.now,
                    detail=(f"client={self.name} age_ns={age:.0f} "
                            f"pending={len(self._pending)}"),
                )
            try:
                yield from self.failover()
            except RuntimeError:
                continue  # owner not resolvable yet; retry next tick

    # -- failover ------------------------------------------------------------

    def failover(self, new_handle=None):
        """Process: re-establish the device relationship mid-I/O.

        Serialized: a second caller (the pool's migration hook racing the
        op-timeout watchdog) waits for the in-flight handover instead of
        starting another.  Steps: harvest completions the previous owner
        already wrote, adopt the new handle (or re-resolve through the
        old one), carve fresh per-generation ring and buffer regions —
        the successor starts from a clean ring, so pre-crash entries can
        never re-execute — then resubmit the still-unfinished entries in
        their original order.  Old buffer addresses remain valid pool
        memory, so resubmission copies no data.
        """
        if self._failing_over is not None:
            yield self._failing_over
            return
        done = self.sim.event(name=f"{self.name}.failover")
        self._failing_over = done
        span = _obs.TRACER.begin(
            f"{self.name}.failover", self.sim.now,
            track=self._track, cat="lease",
            args={"pending": len(self._pending),
                  "generation": self.generation + 1},
        )
        try:
            self.failovers += 1
            _obs.METRICS.counter(self.METRIC_FAILOVERS).inc()
            # Invalidate in-flight posts and the collector's view of the
            # old queues before anything else touches shared state.
            self.generation += 1
            gen = self.generation
            self._wake_collector()
            yield from self._drain_cq()
            if new_handle is not None:
                self.handle = new_handle
            else:
                self.handle.refresh()
            self._subscribe_fence_signals()
            self._carve(f".g{gen}")
            self._tail = 0
            self._cq_head = 0
            self._sq_written = set()
            self._sq_ready = 0
            self._progressed()
            yield from self._setup_with_retry()
            ops = sorted(self._pending.values(), key=lambda op: op.order)
            self._pending = {}
            for op in ops:
                index = self._tail
                self._tail += 1
                op.index = index
                op.submitted_ns = self.sim.now
                self._bind_output(op)
                self._pending[index % INDEX_SPACE] = op
                yield from self._post((op,), parent=op.span or span)
            self.resubmitted += len(ops)
            if ops:
                _obs.METRICS.counter(self.METRIC_RESUBMITTED).inc(len(ops))
                if self.budget is not None:
                    # Replays are correctness traffic: never refused,
                    # but they drain the budget so discretionary
                    # retries and hedges stand down behind them.
                    self.budget.spend_forced(float(len(ops)))
            self._ensure_daemons()
        finally:
            self._failing_over = None
            if not done.triggered:
                done.succeed()
            _obs.TRACER.end(span, self.sim.now)

    def _drain_cq(self):
        """Process: harvest completions the previous owner already wrote.

        Any entry the device finished before dying is observably
        complete; claiming it here — instead of resubmitting it — is
        what keeps failover duplicate-free.
        """
        yield self.sim.timeout(2_000.0)  # let in-flight CQ writes land
        while self._pending:
            if (yield from self._reap_cq(self.generation)) is not None:
                break

    def _setup_with_retry(self, max_attempts: int = 50,
                          backoff_ns: float = 5_000_000.0):
        """Process: run :meth:`setup` against whichever owner currently
        holds the lease, re-resolving between attempts.

        Transport loss and fences are expected while ownership settles;
        a withdrawn assignment is not recoverable here and propagates.
        """
        last = None
        for _attempt in range(max_attempts):
            try:
                yield from self.setup()
                return
            except DeviceWithdrawnError:
                raise
            except _TRANSPORT_ERRORS as exc:
                last = exc
                self.handle.refresh()
                yield self.sim.timeout(backoff_ns)
        raise RuntimeError(
            f"{self.name}: could not re-establish device after failover"
        ) from last
