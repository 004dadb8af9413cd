"""Per-host pooling agent (§4.2).

Each host runs one agent.  It monitors the devices physically attached to
its host — utilization via the devices' own counters, health via MMIO
status reads, exactly what a userspace management daemon would do — and
streams heartbeats, load reports, and failure events to the orchestrator
over a shared-memory control channel.

The agent is also the durable half of the control plane: it remembers the
assignments its host has *adopted* (borrowed devices in active use) and
its device inventory, and re-reports both whenever the orchestrator asks
(Resync after an orchestrator restart) and periodically as a declarative
announce, so a restarted orchestrator reconstructs its entire state from
agents — "agents are the source of truth".

The message types on the wire are the single-slot structs from
:mod:`repro.channel.messages`; both ends fit comfortably in single ring
slots, which is what makes "offload both roles to SmartNICs" (§4.2) a
credible future step.
"""

from __future__ import annotations

from repro.channel.messages import (
    AssignmentReport,
    Completion,
    DeviceAnnounce,
    DeviceFailure as DeviceFailureMsg,
    Heartbeat,
    LeaseGrant,
    LeaseRenew,
    LoadReport,
    Resync,
    kind_code,
    kind_name,
)
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.link import LinkDownError
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.pcie.device import DeviceFailedError, PcieDevice
from repro.sim import Interrupt, Simulator

#: Failure reasons carried in DeviceFailure messages.
REASON_MMIO_TIMEOUT = 1
REASON_STATUS_BAD = 2


def _kind_of(device: PcieDevice) -> str:
    """Wire kind of a device, derived from its concrete class."""
    return type(device).__name__.lower()


class PoolingAgent:
    """Monitor + reporter for one host's local devices."""

    def __init__(self, sim: Simulator, host_id: str,
                 endpoint: RpcEndpoint,
                 report_interval_ns: float = 10_000_000.0):
        self.sim = sim
        self.host_id = host_id
        self.endpoint = endpoint
        self.report_interval_ns = report_interval_ns
        # Declarative re-announce cadence (in report intervals): the
        # eventual-consistency backstop if a Resync or failure event is
        # lost to an outage.
        self.announce_every = 10
        #: Last orchestrator epoch this agent synced to (via Resync).
        self.epoch = 0
        self._devices: dict[int, PcieDevice] = {}
        self._reported_failed: set[int] = set()
        #: Assignments this host borrows: vid -> (device_id, kind, gen).
        self._adopted: dict[int, tuple[int, str, int]] = {}
        #: Ownership leases this host holds: device_id -> (token,
        #: expires_at_ns).  Soft state: a daemon crash is a step-down.
        self._leases: dict[int, tuple[int, float]] = {}
        #: DeviceServers exporting this host's devices; every lease
        #: change is pushed into them so fencing is enforced on the
        #: datapath, not just known to the control plane.
        self._servers: list = []
        self._loop = None
        #: Gray-failure injection: while set, the agent's *work* (device
        #: probes, load reports, announces) stops but its liveness
        #: traffic (heartbeats, lease renewals) keeps flowing — the
        #: stuck-worker-thread failure heartbeat detectors cannot see.
        self.stalled = False
        #: Brownout shed level (set by the pool): at >= 1 the agent
        #: sheds background work — announces stop and device probes run
        #: every :attr:`shed_probe_stride`-th tick — while lease
        #: renewals move to the *front* of the tick, ahead of any probe
        #: or report traffic.  The stride is chosen so stretched load
        #: reports (3 ticks = 30 ms) stay inside the orchestrator's
        #: work-silence timeout (50 ms): shedding must never read as a
        #: stalled agent, or brownout would manufacture the very
        #: quarantines it exists to prevent.
        self.shed_level = 0
        self.shed_probe_stride = 3
        self.announces_shed = 0
        self.probes_shed = 0
        _obs.METRICS.counter(_names.AGENT_ANNOUNCES_SHED)
        _obs.METRICS.counter(_names.AGENT_PROBES_SHED)
        self.reports_sent = 0
        self.failures_reported = 0
        self.recoveries_reported = 0
        self.resyncs = 0
        self.send_failures = 0
        self.link_errors = 0
        self.lease_renewals = 0
        self.lease_refusals = 0
        self.lease_losses = 0
        #: Lease-renew RPC timeout: both attempts of a renewal (two
        #: 2 ms timeouts plus one backoff) fit well inside the 30 ms
        #: lease term (``LEASE_TTL_NS``), so a lost request or reply is
        #: retried before the term runs out.
        self.renew_timeout_ns = 2_000_000.0
        endpoint.on(Resync, self._on_resync)

    def manage(self, device: PcieDevice) -> None:
        """Start monitoring a locally-attached device."""
        if device.attached_host_id != self.host_id:
            raise ValueError(
                f"{device.name} is attached to {device.attached_host_id}, "
                f"not {self.host_id}"
            )
        self._devices[device.device_id] = device

    # -- assignment adoption (borrower-side source of truth) ----------------

    def adopt_assignment(self, virtual_id: int, device_id: int, kind: str,
                         generation: int) -> None:
        """Remember an assignment this host borrows (for resync replay)."""
        self._adopted[virtual_id] = (device_id, kind, generation)

    def abandon_assignment(self, virtual_id: int) -> None:
        self._adopted.pop(virtual_id, None)

    @property
    def adopted_assignments(self) -> dict[int, tuple[int, str, int]]:
        return dict(self._adopted)

    # -- lease handling (fenced ownership, §4.2) ----------------------------

    def attach_server(self, server) -> None:
        """Enforce this agent's leases on a DeviceServer it fronts."""
        if server in self._servers:
            return
        self._servers.append(server)
        for device_id, (token, expires_at_ns) in self._leases.items():
            server.set_lease(device_id, token, expires_at_ns)

    def install_lease(self, device_id: int, token: int,
                      expires_at_ns: float) -> None:
        """Adopt a granted/renewed lease and arm it on every server."""
        self._leases[device_id] = (token, expires_at_ns)
        for server in self._servers:
            server.set_lease(device_id, token, expires_at_ns)

    def drop_lease(self, device_id: int) -> None:
        """Step down: stop serving the device until re-granted."""
        self._leases.pop(device_id, None)
        for server in self._servers:
            server.revoke_lease(device_id)

    def start(self) -> None:
        if self._loop is not None:
            raise RuntimeError(f"agent {self.host_id} already started")
        self._loop = self.sim.spawn(
            self._monitor_loop(), name=f"agent:{self.host_id}"
        )

    def stop(self) -> None:
        if self._loop is not None and self._loop.is_alive:
            self._loop.interrupt(cause="agent stopped")
        self._loop = None

    def rebind_endpoint(self, endpoint: RpcEndpoint) -> None:
        """Swap to a rebuilt control channel (e.g. after an MHD crash).

        The monitor loop is stopped first so no in-flight send keeps
        retrying into the dead channel's memory, then restarted on the new
        endpoint; adopted assignments and inventory survive untouched, so
        the next tick resumes heartbeats and announces seamlessly.
        """
        running = self._loop is not None
        if running:
            self.stop()
        self.endpoint.close()
        self.endpoint = endpoint
        endpoint.on(Resync, self._on_resync)
        if running:
            self.start()

    def set_shed_level(self, level: int) -> None:
        """Adopt the pool's brownout level (see :attr:`shed_level`)."""
        self.shed_level = level

    def stall(self) -> None:
        """Fault injection: the worker half wedges (see :attr:`stalled`)."""
        self.stalled = True

    def unstall(self) -> None:
        self.stalled = False

    def crash(self) -> None:
        """Fault injection: the agent daemon dies, losing soft state.

        A restarted daemon re-scans its bus (``manage``), re-learns its
        adoptions from the pool layer, and re-announces — see
        :meth:`repro.core.PciePool.restart_agent`.
        """
        self.stop()
        # Step down from every lease first: the management daemon dying
        # means nobody will renew, so fencing the servers *now* (rather
        # than at expiry) keeps the owner-stops-before-successor-starts
        # ordering even if the orchestrator reassigns quickly.
        for device_id in sorted(self._leases):
            for server in self._servers:
                server.revoke_lease(device_id)
        self._leases = {}
        self._servers = []
        self._devices = {}
        self._reported_failed = set()
        self._adopted = {}

    # -- monitoring ---------------------------------------------------------------

    def _monitor_loop(self):
        ticks = 0
        # Fixed-rate ticks, not fixed-delay: the work inside a tick
        # (renew RTTs, probe latency) must not stretch the renewal
        # cadence, or slow control-plane round trips would silently eat
        # into every lease term's safety margin.
        next_tick_ns = self.sim.now
        try:
            while True:
                self._step_down_expired()
                shedding = self.shed_level >= 1
                try:
                    yield from self._send_heartbeat()
                    if shedding:
                        # Brownout: renewals jump the queue.  Probe and
                        # report RTTs must not delay the renew while the
                        # control channel is congested — an overloaded
                        # pod must never manufacture a lease lapse.
                        yield from self._renew_leases()
                    # Probe and report devices before the renew round
                    # trips: the utilization snapshot should reflect the
                    # tick boundary, not drift later with control-plane
                    # RPC latency.  A stalled agent skips exactly this
                    # work (and the announces) while its liveness traffic
                    # continues — the gray signature work-silence
                    # detection keys on.
                    if not self.stalled:
                        if (not shedding
                                or ticks % self.shed_probe_stride == 0):
                            for device in list(self._devices.values()):
                                yield from self._check_device(device)
                        else:
                            self.probes_shed += 1
                            _obs.METRICS.counter(_names.AGENT_PROBES_SHED).inc()
                    if not shedding:
                        yield from self._renew_leases()
                    if not self.stalled and ticks % self.announce_every == 0:
                        if shedding:
                            # Announces are the eventual-consistency
                            # backstop: deferring them is free, their
                            # next firing reasserts the same state.
                            self.announces_shed += 1
                            _obs.METRICS.counter(
                                _names.AGENT_ANNOUNCES_SHED).inc()
                        else:
                            yield from self.announce()
                except LinkDownError:
                    # Control channel unreachable this tick; report again
                    # next interval (retry layers already backed off).
                    self.link_errors += 1
                except RpcError:
                    self.send_failures += 1
                ticks += 1
                next_tick_ns += self.report_interval_ns
                if next_tick_ns <= self.sim.now:
                    # A tick overran its whole interval: re-phase rather
                    # than fire a catch-up burst.
                    next_tick_ns = self.sim.now + self.report_interval_ns
                yield self.sim.timeout(next_tick_ns - self.sim.now)
        except Interrupt:
            return

    def announce(self):
        """Process: declaratively re-report inventory and adoptions."""
        span = _obs.TRACER.begin(
            "agent.announce", self.sim.now,
            track=f"{self.host_id}/agent", cat="control",
            args={"devices": len(self._devices),
                  "adopted": len(self._adopted)},
        )
        try:
            for device in sorted(self._devices.values(),
                                 key=lambda d: d.device_id):
                yield from self.endpoint.send_with_retry(DeviceAnnounce(
                    request_id=0,
                    device_id=device.device_id,
                    kind_code=kind_code(_kind_of(device)),
                    healthy=0 if device.failed else 1,
                    epoch=self.epoch,
                ), parent=span)
            for virtual_id in sorted(self._adopted):
                device_id, kind, generation = self._adopted[virtual_id]
                yield from self.endpoint.send_with_retry(AssignmentReport(
                    request_id=0,
                    virtual_id=virtual_id,
                    device_id=device_id,
                    kind_code=kind_code(kind),
                    generation=generation,
                    epoch=self.epoch,
                ), parent=span)
        finally:
            _obs.TRACER.end(span, self.sim.now)

    def _step_down_expired(self) -> None:
        """Voluntarily stop serving devices whose lease term ran out.

        Purely local (no messages): this is what makes a partitioned
        owner safe — it fences itself on the shared clock before the
        orchestrator's post-grace sweep starts a successor.
        """
        now = self.sim.now
        for device_id, (_token, expires_at_ns) in list(self._leases.items()):
            if now > expires_at_ns:
                self.drop_lease(device_id)
                self.lease_losses += 1
                _obs.METRICS.counter(_names.AGENT_LEASE_LOSSES).inc()
                if _obs.TRACER.enabled:
                    _obs.TRACER.instant(
                        "agent.lease_stepdown", now,
                        track=f"{self.host_id}/agent", cat="lease",
                        args={"device": device_id},
                    )

    def _renew_leases(self):
        """Process: renew (or re-acquire) the lease on every local device.

        Each device is tried independently: one refused or timed-out
        renewal must not starve the others.  An agent that restarted (or
        never held a lease) renews with token 0 and is granted a fresh
        term.
        """
        for device_id in sorted(self._devices):
            held = self._leases.get(device_id)
            token = held[0] if held is not None else 0
            try:
                reply = yield from self.endpoint.call_with_retry(
                    LeaseRenew(request_id=0, device_id=device_id,
                               token=token, epoch=self.epoch),
                    timeout_ns=self.renew_timeout_ns, max_attempts=2,
                )
            except (RpcError, LinkDownError):
                # Unreachable orchestrator: keep serving on the current
                # term and retry next tick; if the outage outlasts the
                # term, _step_down_expired fences us.
                self.send_failures += 1
                continue
            if isinstance(reply, LeaseGrant) and reply.status == 0 \
                    and reply.token:
                self.install_lease(device_id, reply.token,
                                   float(reply.expires_at_ns))
                self.lease_renewals += 1
            else:
                self.lease_refusals += 1

    def _send_heartbeat(self):
        yield from self.endpoint.send_with_retry(Heartbeat(
            request_id=0,
            timestamp_us=int(self.sim.now / 1000.0),
            healthy=1,
            epoch=self.epoch,
        ))

    def _check_device(self, device: PcieDevice):
        healthy = yield from self._probe(device)
        if not healthy:
            if device.device_id not in self._reported_failed:
                # Report first, then mark: a send that dies mid-outage is
                # retried on the next tick instead of being lost.
                yield from self.endpoint.send_with_retry(DeviceFailureMsg(
                    request_id=0,
                    device_id=device.device_id,
                    reason=REASON_MMIO_TIMEOUT,
                    epoch=self.epoch,
                ))
                self._reported_failed.add(device.device_id)
                self.failures_reported += 1
                if _obs.TRACER.enabled:
                    _obs.TRACER.instant(
                        "agent.report_failure", self.sim.now,
                        track=f"{self.host_id}/agent", cat="control",
                        args={"device": device.device_id},
                    )
            return
        if device.device_id in self._reported_failed:
            # The device recovered: announce it healthy so the
            # orchestrator can retry assignments parked on its repair.
            yield from self.endpoint.send_with_retry(DeviceAnnounce(
                request_id=0,
                device_id=device.device_id,
                kind_code=kind_code(_kind_of(device)),
                healthy=1,
                epoch=self.epoch,
            ))
            self._reported_failed.discard(device.device_id)
            self.recoveries_reported += 1
            if _obs.TRACER.enabled:
                _obs.TRACER.instant(
                    "agent.recovered", self.sim.now,
                    track=f"{self.host_id}/agent", cat="control",
                    args={"device": device.device_id},
                )
        utilization = device.utilization()
        yield from self.endpoint.send_with_retry(LoadReport(
            request_id=0,
            device_id=device.device_id,
            utilization_permille=min(1000, int(utilization * 1000)),
            queue_depth=0,
            epoch=self.epoch,
        ))
        self.reports_sent += 1

    def _probe(self, device: PcieDevice):
        """Process: health-check via an MMIO status read."""
        try:
            status = yield from device.mmio_read(PcieDevice.REG_STATUS)
        except DeviceFailedError:
            return False
        return status == PcieDevice.STATUS_OK

    # -- resync (orchestrator restart) --------------------------------------

    def _on_resync(self, msg: Resync):
        """Process: adopt the new epoch and replay everything we know."""
        self.epoch = msg.epoch
        self.resyncs += 1
        try:
            yield from self._send_heartbeat()
            yield from self.announce()
            yield from self.endpoint.send_with_retry(
                Completion(request_id=msg.request_id, status=0)
            )
        except (RpcError, LinkDownError):
            # The orchestrator's call_with_retry will re-issue the Resync;
            # the periodic announce covers the rest.
            self.send_failures += 1


def wire_control_channel(orchestrator, endpoint: RpcEndpoint,
                         host_id: str) -> None:
    """Register the orchestrator-side handlers for one agent's channel."""
    # Wiring a channel is the declaration that this host's agent exists:
    # from here on, silence past the heartbeat timeout counts as stale
    # even if the agent never manages a single heartbeat.
    orchestrator.board.expect_agent(host_id, orchestrator.sim.now)

    def dropped(msg) -> bool:
        """Epoch fence: discard pre-crash event notifications."""
        if orchestrator.down:
            orchestrator.dropped_while_down += 1
            return True
        if getattr(msg, "epoch", orchestrator.epoch) != orchestrator.epoch:
            orchestrator.stale_epoch_drops += 1
            return True
        return False

    def on_heartbeat(msg: Heartbeat) -> None:
        orchestrator.ingest_heartbeat(host_id)

    def on_load(msg: LoadReport) -> None:
        orchestrator.ingest_load_report(
            msg.device_id, msg.utilization_permille / 1000.0,
            msg.queue_depth,
        )

    def on_failure(msg: DeviceFailureMsg) -> None:
        # Failure *events* are epoch-fenced: one stamped before an
        # orchestrator crash may describe a device repaired during the
        # outage.  Current state arrives via (unfenced) announces.
        if dropped(msg):
            return
        orchestrator.ingest_device_failure(msg.device_id)

    def on_announce(msg: DeviceAnnounce) -> None:
        orchestrator.ingest_device_announce(
            host_id, msg.device_id, kind_name(msg.kind_code),
            bool(msg.healthy),
        )

    def on_assignment(msg: AssignmentReport) -> None:
        orchestrator.ingest_assignment_report(
            host_id, msg.virtual_id, msg.device_id,
            kind_name(msg.kind_code), msg.generation,
        )

    def on_lease_renew(msg: LeaseRenew):
        # A down orchestrator sends no grant at all: the agent's call
        # times out and its current term keeps ticking toward self-fence.
        if orchestrator.down:
            orchestrator.dropped_while_down += 1
            return
        lease = orchestrator.ingest_lease_renew(
            host_id, msg.device_id, msg.token
        )
        if lease is None:
            reply = LeaseGrant(request_id=msg.request_id,
                               device_id=msg.device_id,
                               token=0, expires_at_ns=0, status=1)
        else:
            reply = LeaseGrant(request_id=msg.request_id,
                               device_id=msg.device_id,
                               token=lease.token,
                               expires_at_ns=int(lease.expires_at_ns),
                               status=0)
        try:
            yield from endpoint.send_with_retry(reply)
        except (RpcError, LinkDownError):
            pass  # lost grant = client timeout; renewed next tick

    endpoint.on(Heartbeat, on_heartbeat)
    endpoint.on(LoadReport, on_load)
    endpoint.on(DeviceFailureMsg, on_failure)
    endpoint.on(DeviceAnnounce, on_announce)
    endpoint.on(AssignmentReport, on_assignment)
    endpoint.on(LeaseRenew, on_lease_renew)
