"""MMIO forwarding: device handles and the owning host's device server.

A driver needs three device-memory verbs: configure a register, read a
register, ring a doorbell.  :class:`LocalDeviceHandle` maps them straight
onto PCIe MMIO.  :class:`RemoteDeviceHandle` encodes them as ring-channel
messages to the :class:`DeviceServer` running on the host the device is
physically attached to (§4.1's "forward device memory operations from
remote hosts to the local host").

Doorbells are fire-and-forget (posted, like real MMIO writes); register
configuration and reads are RPCs with completions.

Ownership is *lease-fenced* (§4.2): the server refuses any forwarded op
whose fencing token does not match the unexpired lease the owner agent
installed, so a partitioned former owner can never serve against a
reassigned device.  Forwarded ops also carry a client-assigned ``op_id``
that is stable across transport retries; a bounded dedup journal on the
server replays the original completion for a duplicate instead of
re-applying the register write, turning at-least-once retries into
exactly-once-observable semantics per serving device.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Optional

from repro.channel.messages import (
    BusyNack,
    Completion,
    Doorbell,
    Fenced,
    MmioRead,
    MmioReadReply,
    MmioWrite,
)
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.link import LinkDownError
from repro.cxl.params import (
    ADMISSION_MAX_INFLIGHT,
    ADMISSION_RETRY_AFTER_NS,
    JOURNAL_CAP_DEFAULT,
    OVERLOAD_RETRY_LIMIT,
)
from repro.health.overload import OverloadError
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.pcie.device import DeviceFailedError, PcieDevice


class LocalDeviceHandle:
    """Driver-side handle for a device on this host: plain MMIO.

    ``parent`` on the verbs is accepted (and ignored beyond local spans)
    so callers can pass trace context without caring whether the device
    ended up local or remote.
    """

    def __init__(self, device: PcieDevice):
        self.device = device
        self.device_id = device.device_id

    @property
    def is_remote(self) -> bool:
        return False

    def refresh(self) -> bool:
        """No-op (local devices have no lease to re-resolve)."""
        return False

    def write_register(self, offset: int, value: int, parent=None):
        """Process: MMIO register write."""
        yield from self.device.mmio_write(offset, value)

    def read_register(self, offset: int, parent=None):
        """Process: MMIO register read; returns the value."""
        value = yield from self.device.mmio_read(offset)
        return value

    def ring_doorbell(self, queue_id: int, index: int, parent=None):
        """Process: posted doorbell write."""
        yield from self.device.mmio_write(
            self.device.doorbell_register(queue_id), index
        )


class DeviceGoneError(RuntimeError):
    """A forwarded operation was rejected: the device failed or moved."""

    def __init__(self, device_id: int, status: int):
        super().__init__(
            f"device {device_id} rejected forwarded op (status={status})"
        )
        self.device_id = device_id
        self.status = status


class FencedError(DeviceGoneError):
    """Retryable rejection: ownership is changing hands.

    The server saw a stale (or revoked) fencing token.  The right client
    reaction is to re-resolve the owner/token and replay the op with the
    same ``op_id`` — :class:`RemoteDeviceHandle` does this internally and
    only surfaces this error once its replay budget is exhausted.
    """


class DeviceWithdrawnError(DeviceGoneError):
    """Fatal rejection: the device is no longer exported to this host.

    Unlike a fence (owner changing under us) there is nothing to replay
    against — the assignment itself is gone.
    """


class FenceSignals:
    """Per-endpoint dispatcher for unsolicited :class:`Fenced` nacks.

    An endpoint has a single handler slot per message type, but several
    device clients can share one endpoint; this router fans a Fenced nack
    out to every subscriber interested in that device.
    """

    _ATTR = "_fence_signals"

    def __init__(self):
        self._subs: dict[int, list[Callable]] = {}

    @classmethod
    def attach(cls, endpoint: RpcEndpoint) -> "FenceSignals":
        router = getattr(endpoint, cls._ATTR, None)
        if router is None:
            router = cls()
            setattr(endpoint, cls._ATTR, router)
            endpoint.on(Fenced, router._dispatch)
        return router

    def subscribe(self, device_id: int, fn: Callable) -> None:
        listeners = self._subs.setdefault(device_id, [])
        if fn not in listeners:
            listeners.append(fn)

    def _dispatch(self, msg: Fenced) -> None:
        for fn in list(self._subs.get(msg.device_id, ())):
            fn(msg)


class RemoteDeviceHandle:
    """Driver-side handle for a device on another pod host.

    All verbs travel over the sub-µs CXL ring channel to the owner's
    :class:`DeviceServer`.  A doorbell costs roughly one channel one-way
    latency (~600 ns) instead of one MMIO write (~200 ns) — the modest
    control-plane premium of pooling.

    When built by the pool the handle carries the device's fencing
    ``token`` and a ``resolver`` callback returning the *current*
    ``(endpoint, token)`` for the device; a STATUS_FENCED rejection makes
    the handle re-resolve and replay the same ``op_id`` (bounded, with
    backoff), so an ownership change mid-operation is invisible to the
    driver above.  ``op_id_source`` must allocate ids unique across every
    endpoint the handle can be re-resolved onto (the pool uses one
    counter per borrower host); without it the endpoint-local counter is
    used, which is only safe for handles that never move endpoints.
    """

    RPC_TIMEOUT_NS = 2_000_000.0
    # Transport-level retries (timeout / link flap); application-level
    # rejections (DeviceGoneError) are never retried here — the
    # orchestrator owns that decision.  Fences are the exception: they
    # are replayed below after re-resolving the owner.
    RPC_MAX_ATTEMPTS = 4
    FENCE_RETRY_LIMIT = 64
    FENCE_BACKOFF_BASE_NS = 500_000.0
    FENCE_BACKOFF_CAP_NS = 8_000_000.0

    def __init__(self, endpoint: RpcEndpoint, device_id: int,
                 token: int = 0,
                 op_id_source: Optional[Callable[[], int]] = None,
                 resolver: Optional[Callable] = None,
                 budget=None, pacer=None):
        self.endpoint = endpoint
        self.device_id = device_id
        self.token = token
        self.op_id_source = op_id_source
        self.resolver = resolver
        self.fence_replays = 0
        # Doorbell coalescing: while one caller (the "carrier") has a
        # forwarded doorbell in flight for a queue, concurrent doorbells
        # to the same queue fold into a pending max instead of each
        # paying a channel message — the devices already treat doorbell
        # writes as max().
        self._db_inflight: set[int] = set()
        self._db_pending: dict[int, int] = {}
        self.doorbells_requested = 0
        self.doorbells_forwarded = 0
        self.doorbells_coalesced = 0
        # Overload handling: a BusyNack reply paces this handle by the
        # server's retry-after hint.  ``budget`` (a RetryBudget) funds
        # both transport retries and busy re-submissions; ``pacer`` (an
        # AimdWindow) is fed the occupancy piggybacked on completions
        # and nacks so the client above slows *before* hard rejection.
        self.budget = budget
        self.pacer = pacer
        self.overload_retry_limit = OVERLOAD_RETRY_LIMIT
        self.busy_nacks = 0
        self.overload_errors = 0
        # Pre-register so the group renders in metric dumps even before
        # (or without) any coalescing/overload — a missing counter is
        # ambiguous.
        _obs.METRICS.counter(_names.PROXY_DOORBELLS_FORWARDED)
        _obs.METRICS.counter(_names.PROXY_DOORBELLS_COALESCED)
        _obs.METRICS.counter(_names.PROXY_BUSY_NACKS)
        _obs.METRICS.counter(_names.PROXY_OVERLOAD_ERRORS)

    @property
    def is_remote(self) -> bool:
        return True

    @property
    def _track(self) -> str:
        return f"{self.endpoint.tx.region.memsys.host_id}/mmio"

    def _alloc_op_id(self) -> int:
        if self.op_id_source is not None:
            return self.op_id_source()
        return self.endpoint.alloc_op_id()

    def refresh(self) -> bool:
        """Re-resolve the current owner endpoint and fencing token.

        Synchronous (no sim time passes).  Returns True when a current
        owner was resolved, False when there is no resolver or the
        device currently has no lease holder.
        """
        if self.resolver is None:
            return False
        resolved = self.resolver()
        if resolved is None:
            return False
        endpoint, token = resolved
        self.endpoint = endpoint
        self.token = token
        return True

    def _fence_pause(self, attempt: int, parent=None):
        """Process: back off, re-resolve; False when budget exhausted."""
        if self.resolver is None or attempt >= self.FENCE_RETRY_LIMIT:
            return False
        sim = self.endpoint.sim
        delay = min(self.FENCE_BACKOFF_CAP_NS,
                    self.FENCE_BACKOFF_BASE_NS * (2 ** min(attempt, 5)))
        rng = sim.rng.stream(f"fence:{self.device_id}")
        delay += float(rng.uniform(0.0, delay / 2.0))
        if _obs.TRACER.enabled:
            _obs.TRACER.instant(
                "mmio.fence_replay", sim.now, track=self._track,
                parent=parent, cat="lease",
                args={"device": self.device_id, "attempt": attempt},
            )
            if parent is not None:
                # Fence-replay backoff is recovery overhead: bill it to
                # the retry phase, not the admission residue.
                prior = (parent.args or {}).get("ph_retry_ns", 0.0)
                parent.set(ph_retry_ns=prior + delay)
        yield sim.timeout(delay)
        self.refresh()
        self.fence_replays += 1
        _obs.METRICS.counter(_names.PROXY_FENCE_REPLAYS).inc()
        return True

    def _note_ack(self, reply) -> None:
        """Feed a completion's piggybacked occupancy to the pacer."""
        if self.pacer is not None:
            self.pacer.on_ack(getattr(reply, "occupancy_permille", 0),
                              self.endpoint.sim.now)

    def _busy_pause(self, attempt: int, nack: BusyNack, parent=None):
        """Process: absorb one busy nack.  False when patience ran out.

        Pacing is the server's retry-after hint plus deterministic
        jitter (named stream — concurrent nacked clients de-synchronize
        reproducibly).  Each re-submission past the first spends a
        retry-budget token: paced resubmits against a saturated server
        are recovery traffic like any other retry.
        """
        self.busy_nacks += 1
        _obs.METRICS.counter(_names.PROXY_BUSY_NACKS).inc()
        if self.pacer is not None:
            self.pacer.on_busy(self.endpoint.sim.now)
        if attempt >= self.overload_retry_limit:
            return False
        if (attempt and self.budget is not None
                and not self.budget.try_spend(1.0)):
            return False
        sim = self.endpoint.sim
        base = float(nack.retry_after_ns) or ADMISSION_RETRY_AFTER_NS
        rng = sim.rng.stream(f"overload:{self.device_id}")
        delay = base + float(rng.uniform(0.0, base))
        if _obs.TRACER.enabled:
            _obs.TRACER.instant(
                "mmio.busy_pause", sim.now, track=self._track,
                parent=parent, cat="overload",
                args={"device": self.device_id, "attempt": attempt},
            )
            if parent is not None:
                prior = (parent.args or {}).get("ph_admission_ns", 0.0)
                parent.set(ph_admission_ns=prior + delay)
        yield sim.timeout(delay)
        return True

    def _raise_overload(self, nack: BusyNack):
        self.overload_errors += 1
        _obs.METRICS.counter(_names.PROXY_OVERLOAD_ERRORS).inc()
        raise OverloadError(
            f"device {self.device_id} forwarded op",
            retry_after_ns=float(nack.retry_after_ns),
        )

    def _raise_status(self, status: int):
        """Map a terminal rejection status onto its typed error."""
        if status == DeviceServer.STATUS_UNKNOWN_DEVICE:
            _obs.METRICS.counter(_names.PROXY_REJECTS_FATAL).inc()
            raise DeviceWithdrawnError(self.device_id, status)
        if status == DeviceServer.STATUS_FENCED:
            _obs.METRICS.counter(_names.PROXY_REJECTS_RETRYABLE).inc()
            raise FencedError(self.device_id, status)
        _obs.METRICS.counter(_names.PROXY_REJECTS_FAILED_DEVICE).inc()
        raise DeviceGoneError(self.device_id, status)

    def write_register(self, offset: int, value: int, parent=None):
        """Process: forwarded register write, waits for the completion."""
        yield from self._forward(MmioWrite, "mmio.write_fwd", offset, parent,
                                 value=value)

    def read_register(self, offset: int, parent=None):
        """Process: forwarded register read; returns the value."""
        value = yield from self._forward(MmioRead, "mmio.read_fwd", offset,
                                         parent)
        return value

    def _forward(self, request_type, span_name: str, offset: int, parent,
                 **fields):
        """Process: one forwarded register op until it resolves.

        The op id is allocated once, so transport retries, busy
        re-submissions *and* fence replays are recognizable duplicates
        to the server's journal; every attempt carries the current
        token.  Returns a read's value (None for a write).
        """
        sim = self.endpoint.sim
        op_id = self._alloc_op_id()
        span = _obs.TRACER.begin(
            span_name, sim.now, track=self._track, parent=parent,
            cat="mmio", args={"device": self.device_id, "addr": offset},
        )
        fence_attempt = 0
        busy_attempt = 0
        try:
            while True:
                reply = yield from self.endpoint.call_with_retry(
                    request_type(
                        request_id=0, device_id=self.device_id, addr=offset,
                        op_id=op_id, token=self.token, **fields,
                    ),
                    timeout_ns=self.RPC_TIMEOUT_NS,
                    max_attempts=self.RPC_MAX_ATTEMPTS,
                    budget=self.budget,
                    parent=span,
                )
                if isinstance(reply, MmioReadReply):
                    return reply.value
                if isinstance(reply, BusyNack):
                    again = yield from self._busy_pause(
                        busy_attempt, reply, parent=span
                    )
                    busy_attempt += 1
                    if again:
                        continue
                    self._raise_overload(reply)
                if reply.status == DeviceServer.STATUS_OK:
                    self._note_ack(reply)
                    return None
                if reply.status == DeviceServer.STATUS_FENCED:
                    replay = yield from self._fence_pause(
                        fence_attempt, parent=span
                    )
                    fence_attempt += 1
                    if replay:
                        continue
                self._raise_status(reply.status)
        finally:
            _obs.TRACER.end(span, sim.now)

    def ring_doorbell(self, queue_id: int, index: int, parent=None):
        """Process: fire-and-forget forwarded doorbell.

        Back-to-back doorbells to the same queue coalesce: while a
        forwarded doorbell is in flight, further rings fold into one
        pending max() that the in-flight caller forwards when its send
        completes — N concurrent submitters cost ~2 channel messages
        instead of N.  Posted semantics are preserved (a merged caller
        returns immediately, exactly like a posted MMIO write landing
        in a write-combining buffer).

        A fenced doorbell is nacked out-of-band with a :class:`Fenced`
        message (there is no completion to reject); subscribe via
        :class:`FenceSignals` to react without waiting for op timeouts.
        A fence replay re-enters here and is forwarded at full fidelity
        (fresh op through the server's journal).
        """
        self.doorbells_requested += 1
        if queue_id in self._db_inflight:
            pending = self._db_pending.get(queue_id)
            self._db_pending[queue_id] = (
                index if pending is None else max(pending, index)
            )
            self.doorbells_coalesced += 1
            _obs.METRICS.counter(_names.PROXY_DOORBELLS_COALESCED).inc()
            return
        self._db_inflight.add(queue_id)
        try:
            yield from self._forward_doorbell(queue_id, index, parent)
            # Drain whatever merged behind us while the send was in
            # flight; each drain pass forwards the freshest max.  The
            # pending entry is only removed after its value has been
            # forwarded (and only if nothing larger merged meanwhile):
            # coalesced callers already returned success, so a carrier
            # failure must leave their max for the next carrier — or
            # the fence-replay / watchdog path — to forward, never
            # silently drop it.
            while True:
                merged = self._db_pending.get(queue_id)
                if merged is None:
                    break
                yield from self._forward_doorbell(queue_id, merged, parent)
                if self._db_pending.get(queue_id) == merged:
                    self._db_pending.pop(queue_id, None)
        finally:
            self._db_inflight.discard(queue_id)

    def _forward_doorbell(self, queue_id: int, index: int, parent=None):
        """Process: one forwarded doorbell message to the owner host."""
        sim = self.endpoint.sim
        span = _obs.TRACER.begin(
            "doorbell.fwd", sim.now, track=self._track, parent=parent,
            cat="mmio",
            args={"device": self.device_id, "queue": queue_id},
        )
        try:
            yield from self.endpoint.send_with_retry(
                Doorbell(
                    request_id=0, device_id=self.device_id,
                    queue_id=queue_id, index=index,
                    op_id=self._alloc_op_id(), token=self.token,
                ),
                parent=span,
            )
            self.doorbells_forwarded += 1
            _obs.METRICS.counter(_names.PROXY_DOORBELLS_FORWARDED).inc()
        finally:
            _obs.TRACER.end(span, sim.now)


#: Sentinel distinguishing "device never had lease state" (legacy
#: unfenced operation, used by direct-wired tests and local tooling)
#: from "lease revoked" (None tombstone: fence everything).
_UNFENCED = object()


class DeviceServer:
    """Owner-host service applying forwarded device-memory operations.

    One server per (owner host, peer host) ring-channel endpoint.  The
    pooling agent (§4.2) runs one of these for every host that currently
    borrows one of its devices.

    Fencing is armed per device the moment the owner agent installs a
    lease via :meth:`set_lease`; devices without any lease state keep the
    pre-lease behaviour (always serve), so hand-wired deployments work
    unchanged.  A device whose lease was revoked — or whose expiry has
    passed on the shared pod clock — rejects every forwarded op: the
    owner *self-fences* even when partitioned from the orchestrator.
    """

    STATUS_OK = 0
    STATUS_FAILED_DEVICE = 1
    STATUS_UNKNOWN_DEVICE = 2
    STATUS_FENCED = 3

    def __init__(self, endpoint: RpcEndpoint,
                 journal_cap: int = JOURNAL_CAP_DEFAULT,
                 max_inflight: int = ADMISSION_MAX_INFLIGHT,
                 retry_after_ns: float = ADMISSION_RETRY_AFTER_NS):
        if journal_cap < 1:
            raise ValueError(f"journal cap must be >= 1, got {journal_cap}")
        if max_inflight < 1:
            raise ValueError(
                f"admission cap must be >= 1, got {max_inflight}"
            )
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self._devices: dict[int, PcieDevice] = {}
        #: device_id -> (token, expires_at_ns) | None (revoked tombstone).
        self._leases: dict[int, Optional[tuple[int, float]]] = {}
        #: Bounded FIFO dedup journal: op_id -> reply template (request_id
        #: zeroed; the replay is re-stamped with the duplicate's id).
        self._journal: OrderedDict[int, object] = OrderedDict()
        self.journal_cap = journal_cap
        endpoint.on(MmioWrite, self._handle_write)
        endpoint.on(MmioRead, self._handle_read)
        endpoint.on(Doorbell, self._handle_doorbell)
        self.forwarded_ops = 0
        self.replies_lost = 0
        self.fenced_ops = 0
        self.dup_suppressed = 0
        #: Entries the FIFO cap pushed out.  A nonzero rate during an
        #: active hedge storm means the journal is sized too small: a
        #: hedged duplicate arriving after its entry was evicted would be
        #: re-applied (doorbells stay safe — max() semantics — but the
        #: exactly-once-observable window shrinks).
        self.journal_evictions = 0
        # Bounded admission: at most ``max_inflight`` forwarded ops may
        # be executing concurrently on this (owner, borrower) queue.
        # MMIO RPCs beyond the cap are busy-nacked with a retry-after
        # hint; doorbells are never refused (they carry no payload,
        # coalesce by max(), and dropping one would turn overload into a
        # lost submission) but do count toward the occupancy every reply
        # piggybacks.
        self.max_inflight = max_inflight
        self.retry_after_ns = retry_after_ns
        self._inflight = 0
        self.admission_rejects = 0
        _obs.METRICS.counter(_names.PROXY_JOURNAL_EVICTIONS)
        _obs.METRICS.gauge(_names.PROXY_JOURNAL_OCCUPANCY)
        _obs.METRICS.counter(_names.PROXY_ADMISSION_REJECTS)
        _obs.METRICS.gauge(_names.PROXY_INFLIGHT)

    def export(self, device: PcieDevice) -> None:
        """Make a locally-attached device reachable through this server."""
        self._devices[device.device_id] = device

    def withdraw(self, device_id: int) -> None:
        self._devices.pop(device_id, None)

    @property
    def exported_ids(self) -> list[int]:
        return sorted(self._devices)

    # -- lease state (installed by the owner's pooling agent) ---------------

    def set_lease(self, device_id: int, token: int,
                  expires_at_ns: float) -> None:
        """Arm (or renew) fencing for a device."""
        self._leases[device_id] = (token, expires_at_ns)

    def revoke_lease(self, device_id: int) -> None:
        """Step down: fence every future op for the device."""
        if device_id in self._leases:
            self._leases[device_id] = None

    def lease_snapshot(self) -> dict[int, Optional[tuple[int, float]]]:
        """Current lease state per device (for invariant checking)."""
        return dict(self._leases)

    def _fence_check(self, msg) -> tuple[bool, int]:
        """(should_fence, current_token) for a forwarded op."""
        lease = self._leases.get(msg.device_id, _UNFENCED)
        if lease is _UNFENCED:
            return False, 0
        if lease is None:
            return True, 0
        token, expires_at_ns = lease
        if self.sim.now > expires_at_ns:
            # Lease term ran out without a renewal reaching us: the
            # orchestrator may already be starting a successor, so stop
            # serving *now* — this is the self-fencing half of the
            # split-brain guarantee and needs no message exchange.
            return True, token
        if msg.token != token:
            return True, token
        return False, token

    def _journal_put(self, op_id: int, reply) -> None:
        self._journal[op_id] = reply
        while len(self._journal) > self.journal_cap:
            self._journal.popitem(last=False)
            self.journal_evictions += 1
            _obs.METRICS.counter(_names.PROXY_JOURNAL_EVICTIONS).inc()
        _obs.METRICS.gauge(_names.PROXY_JOURNAL_OCCUPANCY).set(
            len(self._journal)
        )

    @property
    def journal_occupancy(self) -> int:
        return len(self._journal)

    def _count_fenced(self) -> None:
        self.fenced_ops += 1
        _obs.METRICS.counter(_names.PROXY_FENCED_OPS).inc()
        if _obs.RECORDER.enabled:
            # An owner rejecting a stale borrower is a post-mortem-worthy
            # moment: latch it so a bundle dumped later shows the fence.
            _obs.RECORDER.trip(
                "owner_fenced", self.sim.now,
                detail=(f"server={self.endpoint.name} "
                        f"fenced_ops={self.fenced_ops}"),
            )

    # -- admission (bounded in-flight, cooperative backpressure) ------------

    def occupancy_permille(self) -> int:
        """In-flight / cap, per-mille — piggybacked on every reply."""
        return min(1000, (1000 * self._inflight) // self.max_inflight)

    def _admit(self) -> bool:
        """Reserve one admission slot, or refuse (caller busy-nacks)."""
        if self._inflight >= self.max_inflight:
            self.admission_rejects += 1
            _obs.METRICS.counter(_names.PROXY_ADMISSION_REJECTS).inc()
            return False
        self._inflight += 1
        _obs.METRICS.gauge(_names.PROXY_INFLIGHT).set(self._inflight)
        return True

    def _release(self) -> None:
        self._inflight -= 1
        _obs.METRICS.gauge(_names.PROXY_INFLIGHT).set(self._inflight)

    def _busy_nack(self, request_id: int, device_id: int):
        return BusyNack(
            request_id=request_id, device_id=device_id,
            retry_after_ns=int(self.retry_after_ns),
            occupancy_permille=self.occupancy_permille(),
        )

    # -- handlers (run as processes by the endpoint dispatcher) ----------------

    def _reply(self, message):
        """Process: best-effort reply; a lost reply becomes a client
        timeout + retry rather than a dead handler process."""
        try:
            yield from self.endpoint.send_with_retry(message)
        except (RpcError, LinkDownError):
            self.replies_lost += 1

    def _handle_write(self, msg: MmioWrite):
        def write(device):
            yield from device.mmio_write(msg.addr, msg.value)
            return Completion(request_id=msg.request_id,
                              status=self.STATUS_OK,
                              occupancy_permille=self.occupancy_permille())

        yield from self._serve(msg, write)

    def _handle_read(self, msg: MmioRead):
        def read(device):
            value = yield from device.mmio_read(msg.addr)
            return MmioReadReply(request_id=msg.request_id, value=value)

        yield from self._serve(msg, read)

    def _serve(self, msg, apply):
        """Process: fence, dedup and admit one forwarded register op.

        ``apply(device)`` is a process making the device call and
        returning the success reply.  An outcome the device produced
        (success or a failed device) is journaled under the op id
        before it is replied; an unknown device is not.
        """
        fenced, _ = self._fence_check(msg)
        if fenced:
            self._count_fenced()
            yield from self._reply(
                Completion(request_id=msg.request_id,
                           status=self.STATUS_FENCED)
            )
            return
        if msg.op_id:
            cached = self._journal.get(msg.op_id)
            if cached is not None:
                # Duplicate of an op we already applied (the client's
                # first attempt succeeded but its completion was lost):
                # replay the recorded outcome instead of re-applying.
                self.dup_suppressed += 1
                _obs.METRICS.counter(_names.PROXY_DUP_SUPPRESSED).inc()
                yield from self._reply(
                    dataclasses.replace(cached, request_id=msg.request_id)
                )
                return
        if not self._admit():
            yield from self._reply(
                self._busy_nack(msg.request_id, msg.device_id)
            )
            return
        try:
            device = self._devices.get(msg.device_id)
            if device is None:
                reply = Completion(
                    request_id=msg.request_id,
                    status=self.STATUS_UNKNOWN_DEVICE,
                    occupancy_permille=self.occupancy_permille(),
                )
            else:
                try:
                    reply = yield from apply(device)
                    self.forwarded_ops += 1
                except DeviceFailedError:
                    reply = Completion(
                        request_id=msg.request_id,
                        status=self.STATUS_FAILED_DEVICE,
                        occupancy_permille=self.occupancy_permille(),
                    )
                if msg.op_id:
                    self._journal_put(
                        msg.op_id,
                        dataclasses.replace(reply, request_id=0),
                    )
            yield from self._reply(reply)
        finally:
            self._release()

    def _handle_doorbell(self, msg: Doorbell):
        fenced, cur_token = self._fence_check(msg)
        if fenced:
            # Doorbells are posted, so there is no completion to reject;
            # nack out-of-band so the borrower learns its token is stale
            # long before its op timeout fires.
            self._count_fenced()
            yield from self._reply(
                Fenced(request_id=0, device_id=msg.device_id,
                       op_id=msg.op_id, token=cur_token)
            )
            return
        device = self._devices.get(msg.device_id)
        if device is None or device.failed:
            return  # posted write to a dead device: silently lost, like HW
        # Doorbells bypass the admission gate (see __init__) but still
        # occupy a slot, so MMIO admission and piggybacked occupancy see
        # doorbell pressure too.
        self._inflight += 1
        _obs.METRICS.gauge(_names.PROXY_INFLIGHT).set(self._inflight)
        try:
            reg = device.doorbell_register(msg.queue_id)
            yield from device.mmio_write(reg, msg.index)
            self.forwarded_ops += 1
        except (DeviceFailedError, ValueError):
            return
        finally:
            self._release()
