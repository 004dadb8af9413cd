"""Request/response RPC over a pair of ring channels.

An :class:`RpcEndpoint` owns the sending half of one ring and the
receiving half of another (its peer holds the mirror halves).  Callers get
synchronous-looking ``call()`` semantics inside simulation processes;
a background dispatcher demultiplexes replies by request id and feeds
unsolicited messages to registered handlers — this is how the local host's
pooling agent services forwarded MMIO operations (§4.1) and how agents
talk to the orchestrator (§4.2).

An idle dispatcher does not walk a poll grid: it parks on its receive
ring's ``wake`` event, which the peer's next publish triggers (see
:mod:`repro.channel.ring`).  It parks only when the sender's announced
count shows nothing in flight, so a publish that committed while the
dispatcher was awake is polled for at the base cadence until it lands.
There is no timeout behind the park: the ring never misses a wake-up,
and the ``parked_dispatcher_liveness`` auditor
(:mod:`repro.scenarios.invariants`) checks that it does not.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.channel.messages import Message, decode_message
from repro.channel.ring import (
    SLOT_PAYLOAD_BYTES,
    RingReceiver,
    RingSender,
    SlotCorruptionError,
)
from repro.cxl.link import LinkDownError
from repro.cxl.params import LINK_RETRY_POLL_NS, RECV_POLL_NS
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.obs.context import unwrap_trace, wrap_trace
from repro.sim import Event, Interrupt


class RpcError(RuntimeError):
    """Raised when an RPC cannot be completed."""


class RetryBudgetExhausted(RpcError):
    """A retry was denied because the caller's retry budget ran dry.

    Deliberately *not* a transport error: the transport may be fine —
    the pod is overloaded, and this client has already spent its
    recovery allowance.  Callers treat it like a failed op (and must
    de-journal any op id they journaled before posting; see
    DESIGN.md §12.3).
    """


class PartitionedError(LinkDownError):
    """Raised when an endpoint is administratively partitioned.

    Subclasses :class:`LinkDownError` so every retry loop that already
    treats a dead link as a transient transport fault handles a network
    partition identically — the difference is that a partition severs
    *this endpoint* (both directions) while the ring memory itself stays
    healthy.
    """

    def __init__(self, endpoint_name: str):
        # Skip LinkDownError.__init__ — there is no CxlLink object here,
        # the "link" that failed is an administrative decision.
        Exception.__init__(
            self, f"endpoint {endpoint_name!r} is partitioned"
        )
        self.link = None


class RpcEndpoint:
    """One side of a bidirectional ring pair."""

    def __init__(self, sim, name: str,
                 tx: RingSender, rx: RingReceiver,
                 poll_overhead_ns: float = RECV_POLL_NS):
        self.sim = sim
        self.name = name
        self.tx = tx
        self.rx = rx
        # Poll cadence while traffic flows: datapath endpoints poll at
        # sub-us latency; control-plane endpoints may poll lazily.
        self.poll_overhead_ns = poll_overhead_ns
        # Poll elision: the idle dispatcher parks on the rx ring's wake
        # event instead of walking a poll grid.
        self.empty_polls = 0
        self.parks = 0
        self._polls_elided = 0
        #: Sim time the dispatcher parked at; None while it is awake.
        self._parked_at: float | None = None
        self._next_request_id = 1
        self._next_op_id = 1
        #: Administrative partition flag: outbound sends raise
        #: PartitionedError, inbound messages are dropped after recv (the
        #: peer's write still lands in ring memory; this host just never
        #: processes it — the host is alive but unreachable).
        self.partitioned = False
        self.partition_drops = 0
        #: Outstanding calls: request id -> the event its reply triggers.
        self._calls: dict[int, Event] = {}
        #: Request ids of calls that timed out: a straggler reply to one
        #: is dropped (and counted) rather than matched to a later call.
        self._abandoned: set[int] = set()
        self._handlers: dict[type, Callable] = {}
        self._dispatcher = sim.spawn(
            self._dispatch_loop(), name=f"rpc-dispatch:{name}"
        )
        self.calls_sent = 0
        self.messages_handled = 0
        # Self-healing telemetry (aggregated by the pool into the board).
        self.retries = 0
        self.backoff_ns_total = 0.0
        self.calls_timed_out = 0
        self.calls_gave_up = 0
        self.retry_deadline_exhausted = 0
        self.late_replies_dropped = 0
        self.link_errors = 0
        # Integrity telemetry: detected-and-contained corruption.  Every
        # reply crosses the same CRC-checked slots as the request, so a
        # call that returns has been verified end-to-end; a corrupt
        # request or reply lands here and the caller's retransmit (fresh
        # request id) recovers it.
        self.slot_corruptions = 0
        self.decode_errors = 0
        #: The two :class:`~repro.channel.ring.RingChannel` objects under
        #: this endpoint when built via :meth:`pair` (recovery bookkeeping:
        #: which MHD the channel lives on, and its pool allocation).
        self.rings: tuple = ()

    # -- wiring -----------------------------------------------------------

    @classmethod
    def pair(cls, pod, host_a: str, host_b: str, n_slots: int = 64,
             label: str = "", poll_overhead_ns: float = RECV_POLL_NS,
             ) -> tuple["RpcEndpoint", "RpcEndpoint"]:
        """Build two connected endpoints over freshly-allocated rings."""
        from repro.channel.ring import RingChannel

        tag = label or f"{host_a}<->{host_b}"
        a_to_b = RingChannel.over_pod(
            pod, host_a, host_b, n_slots, label=f"rpc:{tag}:fwd"
        )
        b_to_a = RingChannel.over_pod(
            pod, host_b, host_a, n_slots, label=f"rpc:{tag}:rev"
        )
        ep_a = cls(pod.sim, f"{tag}@{host_a}", a_to_b.sender,
                   b_to_a.receiver, poll_overhead_ns=poll_overhead_ns)
        ep_b = cls(pod.sim, f"{tag}@{host_b}", b_to_a.sender,
                   a_to_b.receiver, poll_overhead_ns=poll_overhead_ns)
        ep_a.rings = (a_to_b, b_to_a)
        ep_b.rings = (a_to_b, b_to_a)
        return ep_a, ep_b

    def mhd_footprint(self) -> set:
        """MHD indices this endpoint's rings live on (failure domains)."""
        return {ring.mhd_index for ring in self.rings
                if ring.mhd_index is not None}

    def demote_bursts(self) -> None:
        """Gray media: degrade both halves to slot-at-a-time transfers."""
        self.tx.degraded = True
        self.rx.degraded = True

    def promote_bursts(self) -> None:
        """Healthy again: re-enable the multi-slot burst paths."""
        self.tx.degraded = False
        self.rx.degraded = False

    def on(self, message_type: type, handler: Callable) -> None:
        """Register ``handler(message)`` for unsolicited messages.

        The handler may be a plain function (side effects only) or a
        generator function (run as a process per message).
        """
        self._handlers[message_type] = handler

    def close(self) -> None:
        """Stop the dispatcher (endpoint becomes send-only)."""
        if self._dispatcher.is_alive:
            self._dispatcher.interrupt(cause="endpoint closed")

    # -- client side --------------------------------------------------------

    def next_request_id(self) -> int:
        rid = self._next_request_id
        self._next_request_id += 1
        return rid

    def alloc_op_id(self) -> int:
        """Allocate a client operation id, unique within this endpoint.

        Unlike request ids (fresh per transport attempt), an op id is
        assigned once per logical operation and survives retries, so the
        server's dedup journal can recognize a replay.
        """
        oid = self._next_op_id
        self._next_op_id += 1
        return oid

    def partition(self) -> None:
        """Administratively sever this endpoint (both directions)."""
        self.partitioned = True

    def heal(self) -> None:
        """Lift an administrative partition."""
        self.partitioned = False

    @property
    def _host_id(self) -> str:
        return self.tx.region.memsys.host_id

    def send(self, message: Message, parent=None):
        """Process: fire-and-forget a message.

        With tracing enabled the payload is wrapped in a trace envelope
        (child of ``parent`` when given), so the receiving dispatcher
        joins its handler span to the sender's trace.
        """
        if self.partitioned:
            raise PartitionedError(self.name)
        tracer = _obs.TRACER
        if tracer.enabled:
            span = tracer.begin(
                f"rpc.send:{type(message).__name__}", self.sim.now,
                track=f"{self._host_id}/rpc", parent=parent, cat="rpc",
            )
            payload = wrap_trace(message.encode(), span.context(),
                                 budget=SLOT_PAYLOAD_BYTES)
            try:
                yield from self.tx.send(payload, ctx=span.context())
            finally:
                tracer.end(span, self.sim.now)
        else:
            yield from self.tx.send(message.encode())
        self.calls_sent += 1

    def call(self, message: Message, timeout_ns: Optional[float] = None,
             parent=None):
        """Process: send ``message`` and wait for the matching reply.

        Matching is by ``request_id``; the message must carry one.  Raises
        :class:`RpcError` on timeout.  The span (when tracing) covers
        send → matched reply — the full send→ack exchange.
        """
        if self.partitioned:
            raise PartitionedError(self.name)
        rid = message.request_id
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                f"rpc.call:{type(message).__name__}", self.sim.now,
                track=f"{self._host_id}/rpc", parent=parent, cat="rpc",
                args={"request_id": rid},
            )
            payload = wrap_trace(message.encode(), span.context(),
                                 budget=SLOT_PAYLOAD_BYTES)
            yield from self.tx.send(payload, ctx=span.context())
        else:
            yield from self.tx.send(message.encode())
        self.calls_sent += 1
        started_ns = self.sim.now
        reply = self._calls[rid] = self.sim.event("rpc-reply")
        if timeout_ns is None:
            yield reply
        else:
            result = yield reply | self.sim.timeout(timeout_ns)
            if reply not in result:
                # Forget the call so a late reply does not satisfy a
                # waiter that already gave up, and remember the request
                # id: a straggler reply must be dropped, or it could be
                # matched to a future request reusing the same id.
                self._calls.pop(rid, None)
                self._abandoned.add(rid)
                self.calls_timed_out += 1
                if span is not None:
                    tracer.end(span, self.sim.now, outcome="timeout")
                raise RpcError(
                    f"{self.name}: rpc {type(message).__name__} "
                    f"(id={rid}) timed out after {timeout_ns} ns"
                )
        if span is not None:
            tracer.end(span, self.sim.now)
        _obs.METRICS.observe(_names.RPC_CALL_NS, self.sim.now - started_ns)
        return reply.value

    def call_with_retry(self, message: Message, timeout_ns: float,
                        max_attempts: int = 5,
                        backoff_base_ns: float = LINK_RETRY_POLL_NS,
                        backoff_cap_ns: float = 5_000_000.0,
                        retry_deadline_ns: float | None = None,
                        budget=None, parent=None):
        """Process: ``call()`` with decorrelated-jitter backoff.

        Retries transport-level failures (timeouts, dead links) with a
        fresh request id per attempt; application-level error replies are
        returned/raised untouched.  Backoff uses *decorrelated jitter*
        (``delay = uniform(base, 3 * prev_delay)``, capped): unlike
        exponential-plus-jitter, consecutive delays share no common
        base-times-2^k spine, so a fleet of clients whose first failures
        coincided (one server blip) cannot phase-lock into synchronized
        retry waves against the recovering server.  The stream is the
        deterministic named RNG, so runs stay reproducible.

        ``retry_deadline_ns`` caps *cumulative* retry time: once
        ``sim.now`` passes ``start + retry_deadline_ns`` no further
        attempt is made even if ``max_attempts`` remain (without it, the
        worst case is max_attempts stacked timeouts plus backoffs —
        far past any caller's patience during an overload).

        ``budget`` (any object with ``try_spend(cost) -> bool``, see
        :class:`repro.health.overload.RetryBudget`) charges one token
        per *retry* — the first attempt is goodput and rides free.  A
        denied spend raises :class:`RetryBudgetExhausted` immediately.
        """
        rng = self.sim.rng.stream(f"rpc-retry:{self.name}")
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            span = tracer.begin(
                f"rpc.retry_loop:{type(message).__name__}", self.sim.now,
                track=f"{self._host_id}/rpc", parent=parent, cat="rpc",
            )
            parent = span
        started_ns = self.sim.now
        last_error: Optional[Exception] = None
        delay = float(backoff_base_ns)
        attempt = 0
        try:
            for attempt in range(max_attempts):
                if attempt:
                    if (retry_deadline_ns is not None
                            and self.sim.now - started_ns
                            >= retry_deadline_ns):
                        self.retry_deadline_exhausted += 1
                        _obs.METRICS.counter(
                            _names.RPC_RETRY_DEADLINE_EXHAUSTED
                        ).inc()
                        self.calls_gave_up += 1
                        raise RpcError(
                            f"{self.name}: rpc {type(message).__name__} "
                            f"retry deadline ({retry_deadline_ns} ns) "
                            f"exhausted after {attempt} attempts"
                        ) from last_error
                    if budget is not None and not budget.try_spend(1.0):
                        self.calls_gave_up += 1
                        raise RetryBudgetExhausted(
                            f"{self.name}: rpc {type(message).__name__} "
                            f"retry denied by budget after {attempt} "
                            f"attempts"
                        ) from last_error
                    delay = float(rng.uniform(backoff_base_ns,
                                              3.0 * delay))
                    delay = min(float(backoff_cap_ns), delay)
                    self.retries += 1
                    self.backoff_ns_total += delay
                    if span is not None:
                        tracer.instant(
                            "rpc.backoff", self.sim.now,
                            track=f"{self._host_id}/rpc", parent=span,
                            cat="retry",
                            args={"attempt": attempt, "delay_ns": delay},
                        )
                        prior = (span.args or {}).get("ph_retry_ns", 0.0)
                        span.set(ph_retry_ns=prior + delay)
                    yield self.sim.timeout(delay)
                attempt_msg = dataclasses.replace(
                    message, request_id=self.next_request_id()
                )
                try:
                    reply = yield from self.call(attempt_msg,
                                                 timeout_ns=timeout_ns,
                                                 parent=parent)
                    return reply
                except (RpcError, LinkDownError) as exc:
                    last_error = exc
            self.calls_gave_up += 1
            raise RpcError(
                f"{self.name}: rpc {type(message).__name__} failed after "
                f"{max_attempts} attempts"
            ) from last_error
        finally:
            if span is not None:
                tracer.end(span, self.sim.now, attempts=attempt + 1)

    def send_with_retry(self, message: Message, max_attempts: int = 5,
                        backoff_base_ns: float = LINK_RETRY_POLL_NS,
                        backoff_cap_ns: float = 5_000_000.0,
                        parent=None):
        """Process: fire-and-forget with backoff across link outages.

        Uses the same decorrelated-jitter ladder as
        :meth:`call_with_retry` so posted and call traffic recovering
        from one outage stay mutually de-synchronized.
        """
        rng = self.sim.rng.stream(f"rpc-retry:{self.name}")
        tracer = _obs.TRACER
        last_error: Optional[Exception] = None
        delay = float(backoff_base_ns)
        for attempt in range(max_attempts):
            if attempt:
                delay = min(float(backoff_cap_ns),
                            float(rng.uniform(backoff_base_ns,
                                              3.0 * delay)))
                self.retries += 1
                self.backoff_ns_total += delay
                if tracer.enabled:
                    tracer.instant(
                        "rpc.backoff", self.sim.now,
                        track=f"{self._host_id}/rpc", parent=parent,
                        cat="retry",
                        args={"attempt": attempt, "delay_ns": delay},
                    )
                yield self.sim.timeout(delay)
            try:
                yield from self.send(message, parent=parent)
                return
            except LinkDownError as exc:
                last_error = exc
        self.calls_gave_up += 1
        raise RpcError(
            f"{self.name}: send {type(message).__name__} failed after "
            f"{max_attempts} attempts"
        ) from last_error

    # -- dispatcher -----------------------------------------------------------

    @property
    def polls_elided(self) -> int:
        """Empty-poll events *not* scheduled while parked.

        Estimated against the base poll cadence: what a busy-poll
        dispatcher would have burned over the same idle spans, the park
        in progress included (a dispatcher idle when the run stops never
        wakes from its last park).
        """
        elided = self._polls_elided
        if self._parked_at is not None:
            elided += self._elided_since(self._parked_at)
        return elided

    def _elided_since(self, parked_at: float) -> int:
        return max(0, int((self.sim.now - parked_at) / self.poll_overhead_ns)
                   - 1)

    def _dispatch_loop(self):
        sim = self.sim
        base = self.poll_overhead_ns
        rx = self.rx
        # Event-driven wakeups: an idle dispatcher parks on the ring's
        # wake event and the peer's next publish triggers it, so an idle
        # endpoint schedules no empty-poll events.
        try:
            while True:
                try:
                    # First message via the single-slot poll, so its
                    # delivery latency is identical to the legacy
                    # dispatcher; everything else already sitting in the
                    # ring is then batch-drained in one pass (streaming
                    # window reads instead of per-slot misses).
                    first = yield from rx.try_recv()
                    if first is None:
                        self.empty_polls += 1
                        if rx.published > rx.consumed:
                            # A publish committed but its NT store has
                            # not landed at the media yet (or was lost in
                            # flight): keep base-rate polling instead of
                            # parking, because that publish's wake-up
                            # went by while we were awake.
                            yield sim.timeout(base)
                            continue
                        self._parked_at = sim.now
                        park = rx.wake = sim.event("rpc-park")
                        self.parks += 1
                        try:
                            yield park
                        finally:
                            rx.wake = None
                            self._polls_elided += self._elided_since(
                                self._parked_at)
                            self._parked_at = None
                        continue
                except LinkDownError:
                    # The CXL path under the ring is flapping.  Keep the
                    # dispatcher alive and re-poll after a backoff — the
                    # channel memory is still intact on the MHD.
                    self.link_errors += 1
                    yield self.sim.timeout(LINK_RETRY_POLL_NS)
                    continue
                except SlotCorruptionError:
                    # Poison or a failed CRC ate one message.  The loss
                    # is detected and counted; the peer's retransmit
                    # (fresh request id) recovers the exchange end-to-end.
                    self.slot_corruptions += 1
                    continue
                # Traffic: deliver the first message, then sweep up the
                # backlog that sits behind it in one drain pass (losses
                # inside the batch are counted by the ring; surface them
                # here).
                self._deliver(first)
                try:
                    lost_before = rx.lost_slots
                    batch = yield from rx.drain()
                    self.slot_corruptions += rx.lost_slots - lost_before
                except LinkDownError:
                    self.link_errors += 1
                    yield self.sim.timeout(LINK_RETRY_POLL_NS)
                    continue
                for payload in batch:
                    self._deliver(payload)
        except Interrupt:
            return

    def _deliver(self, payload: bytes) -> None:
        """Route one received slot payload to its handler or waiter."""
        if self.partitioned:
            # Partitioned hosts stay alive but unreachable: the peer's
            # writes land in ring memory, yet nothing is delivered to
            # handlers or waiting callers.
            self.partition_drops += 1
            return
        # Trace envelopes are stripped whether or not tracing is
        # currently enabled: the tag byte (0xFE) can never be a
        # registered message tag, so this is unambiguous, and it keeps a
        # receiver correct even if the sender's tracer was switched on
        # when this one was not.
        payload, trace_ctx = unwrap_trace(payload)
        try:
            message = decode_message(payload)
        except (ValueError, IndexError):
            # A CRC-valid slot that still fails to decode means the
            # *sender* wrote garbage (or a version skew) — drop it
            # rather than kill the dispatcher.
            self.decode_errors += 1
            return
        self.messages_handled += 1
        handler = self._handlers.get(type(message))
        rid = getattr(message, "request_id", 0)
        if handler is not None:
            self._run_handler(handler, message, trace_ctx)
        elif rid in self._abandoned:
            # Straggler reply to a call that already timed out.
            self._abandoned.discard(rid)
            self.late_replies_dropped += 1
        elif rid in self._calls:
            self._calls.pop(rid).succeed(message)
        # Otherwise no call waits for it and nothing handles it: drop it.

    def _run_handler(self, handler: Callable, message: Message,
                     trace_ctx=None) -> None:
        tracer = _obs.TRACER
        span = None
        if tracer.enabled:
            # The receiver-side half of the cross-host trace: a child of
            # the sender's span via the wire context.  Plain handlers get
            # an instant; generator handlers get a span covering their
            # whole process (ended by the wrapper below).
            span = tracer.begin(
                f"rpc.handle:{type(message).__name__}", self.sim.now,
                track=f"{self.rx.region.memsys.host_id}/rpc",
                parent=trace_ctx, cat="rpc",
            )
        result = handler(message)
        if result is not None and hasattr(result, "send"):
            if span is not None:
                result = self._traced_handler(result, span)
            self.sim.spawn(result, name=f"rpc-handler:{self.name}")
        elif span is not None:
            tracer.end(span, self.sim.now)

    def _traced_handler(self, gen, span):
        """Process wrapper: end the handler span when the handler does."""
        try:
            result = yield from gen
            return result
        finally:
            _obs.TRACER.end(span, self.sim.now)

    def __repr__(self) -> str:
        return (
            f"<RpcEndpoint {self.name!r} sent={self.calls_sent} "
            f"handled={self.messages_handled}>"
        )
