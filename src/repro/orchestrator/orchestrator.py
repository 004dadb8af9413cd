"""The orchestrator service: device registry, assignments, failover.

Runs as a management process on one pod host.  State is symbolic — device
ids, host ids, assignments — while the mechanics of *using* an assignment
(building handles, stacks, rings) belong to :mod:`repro.core`.  Decisions:

* allocation per :mod:`repro.orchestrator.policy`;
* failure handling: on a device-failure report (or a dead agent), every
  assignment on the affected device is migrated to a replacement chosen
  by the same policy, and subscribers are notified;
* periodic load balancing: if the utilization spread across devices of a
  kind exceeds a threshold, one borrower is moved from the hottest to the
  coldest device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cxl.params import (
    HEALTH_GRAY_TICKS,
    HEALTH_PROBATION_TICKS,
    HEARTBEAT_TIMEOUT_NS,
    MONITOR_CHECK_INTERVAL_NS,
    WORK_SILENCE_TIMEOUT_NS,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.orchestrator.lease import (
    DEFAULT_GRACE_NS,
    DEFAULT_TTL_NS,
    Lease,
    LeaseTable,
)
from repro.orchestrator.policy import AllocationPolicy, LocalFirstPolicy
from repro.orchestrator.telemetry import TelemetryBoard
from repro.sim import Interrupt, Simulator

_TRACK = "orchestrator/control"


def _instant(name: str, now: float, **args) -> None:
    """Control-plane decisions are point events on the orchestrator track."""
    if _obs.TRACER.enabled:
        _obs.TRACER.instant(name, now, track=_TRACK, cat="control",
                            args=args or None)


class NoDeviceAvailable(RuntimeError):
    """No healthy device of the requested kind exists in the pod."""


@dataclass
class DeviceRecord:
    """Registry entry for one physical device."""

    device_id: int
    owner_host: str
    kind: str


@dataclass
class Assignment:
    """A live virtual-device -> physical-device mapping."""

    virtual_id: int
    borrower_host: str
    kind: str
    device_id: int
    since_ns: float
    generation: int = 0  # bumped on every migration


class Orchestrator:
    """Control plane of one PCIe pool."""

    def __init__(self, sim: Simulator,
                 policy: Optional[AllocationPolicy] = None,
                 heartbeat_timeout_ns: float = HEARTBEAT_TIMEOUT_NS,
                 rebalance_spread: float = 0.4,
                 lease_ttl_ns: float = DEFAULT_TTL_NS,
                 lease_grace_ns: float = DEFAULT_GRACE_NS):
        self.sim = sim
        self.policy = policy or LocalFirstPolicy()
        self.board = TelemetryBoard()
        self.heartbeat_timeout_ns = heartbeat_timeout_ns
        self.rebalance_spread = rebalance_spread
        #: Per-device ownership leases (fencing tokens).  Soft state: an
        #: orchestrator crash clears the table and agents re-seed it by
        #: renewing with the tokens they still hold (adoption).
        self.leases = LeaseTable(ttl_ns=lease_ttl_ns,
                                 grace_ns=lease_grace_ns)
        #: Devices currently fenced because their lease expired (owner
        #: unreachable); un-fenced when the owner renews again.
        self._lease_fenced: set[int] = set()
        self.lease_expiries = 0
        self._records: dict[int, DeviceRecord] = {}
        self._assignments: dict[int, Assignment] = {}
        self._next_virtual_id = 1
        #: subscribers notified as fn(assignment, old_device_id) whenever
        #: an assignment is (re)bound; old_device_id None on first bind.
        self._migration_subscribers: list[Callable] = []
        self._monitor = None
        self._check_interval_ns = MONITOR_CHECK_INTERVAL_NS
        #: virtual ids whose failover found no target; retried on device
        #: repair, on new registrations, and every monitor tick.
        self._pending_repair: set[int] = set()
        #: restart generation, stamped into Resync and fenced against
        #: pre-crash DeviceFailure events (wraps at the wire's one byte).
        self.epoch = 0
        #: True between crash() and restart(): all ingestion is dropped.
        self.down = False
        # Counters for experiments.
        self.migrations = 0
        self.failovers = 0
        self.repair_rebinds = 0
        self.stale_epoch_drops = 0
        self.dropped_while_down = 0
        # Memory RAS: pool-device (MHD) failure domain accounting.
        self.mhd_failures_seen = 0
        self.mhd_repairs_seen = 0
        self._mhds_down: set[int] = set()
        # Gray-failure containment: fail-slow MHDs reported by the pool's
        # health-scored monitor, and work-silent (stalled) agents caught
        # by the work-silence check below.
        self._mhds_gray: set[int] = set()
        self.mhd_grays_seen = 0
        self.mhd_reinstates_seen = 0
        self.work_silence_timeout_ns = WORK_SILENCE_TIMEOUT_NS
        #: Hosts whose agents look stalled: lease renewals are refused so
        #: their terms lapse and devices fail over with fencing intact.
        self._quarantined_hosts: set[str] = set()
        self._stall_suspect_ticks: dict[str, int] = {}
        self._stall_clean_ticks: dict[str, int] = {}
        self.hosts_quarantined = 0
        self.hosts_reinstated = 0
        self.quarantine_refusals = 0
        #: (host, sim_now) per quarantine event — detection-time probes
        #: for the gray chaos soak.
        self.stall_quarantine_log: list = []

    # -- registry --------------------------------------------------------------

    def register_device(self, device_id: int, owner_host: str,
                        kind: str) -> None:
        """Add a physical device to the pool."""
        if device_id in self._records:
            raise ValueError(f"device {device_id} already registered")
        self._records[device_id] = DeviceRecord(device_id, owner_host, kind)
        self.board.track(device_id, owner_host, kind)
        # No lease is granted here: fencing arms when the owner's agent
        # first renews (the pool bootstraps that synchronously), so a
        # hand-driven orchestrator without agents keeps the legacy
        # unfenced behaviour.
        # New capacity may unblock assignments stranded by a failed
        # failover.
        self._retry_pending_repairs()

    @property
    def devices(self) -> list[DeviceRecord]:
        return [self._records[d] for d in sorted(self._records)]

    # -- allocation ---------------------------------------------------------------

    def _active_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for assignment in self._assignments.values():
            counts[assignment.device_id] = (
                counts.get(assignment.device_id, 0) + 1
            )
        return counts

    def request_device(self, host_id: str, kind: str) -> Assignment:
        """Allocate a device of ``kind`` to ``host_id`` (§4.2 policy)."""
        chosen = self.policy.choose(host_id, kind, self.board,
                                    self._active_counts())
        if chosen is None:
            raise NoDeviceAvailable(
                f"no healthy {kind!r} device available for {host_id!r}"
            )
        assignment = Assignment(
            virtual_id=self._next_virtual_id,
            borrower_host=host_id,
            kind=kind,
            device_id=chosen.device_id,
            since_ns=self.sim.now,
        )
        self._next_virtual_id += 1
        self._assignments[assignment.virtual_id] = assignment
        _instant("orch.assign", self.sim.now,
                 virtual_id=assignment.virtual_id, host=host_id,
                 kind=kind, device=assignment.device_id)
        self._notify(assignment, old_device_id=None)
        return assignment

    def release(self, virtual_id: int) -> None:
        self._assignments.pop(virtual_id, None)
        self._pending_repair.discard(virtual_id)

    @property
    def assignments(self) -> list[Assignment]:
        return [self._assignments[v] for v in sorted(self._assignments)]

    @property
    def degraded_assignments(self) -> int:
        """Assignments currently parked on the pending-repair queue."""
        return len(self._pending_repair)

    def assignment_table(self) -> dict[int, tuple[str, str, int]]:
        """Snapshot ``{virtual_id: (borrower, kind, device_id)}``.

        Generation is deliberately excluded: it is bookkeeping that may
        legitimately advance across an orchestrator restart, while the
        mapping itself must survive (the restart acceptance criterion).
        """
        return {
            a.virtual_id: (a.borrower_host, a.kind, a.device_id)
            for a in self._assignments.values()
        }

    def assignments_on(self, device_id: int) -> list[Assignment]:
        return [a for a in self.assignments if a.device_id == device_id]

    def on_migration(self, fn: Callable) -> None:
        """Subscribe to (re)bind events: ``fn(assignment, old_device_id)``."""
        self._migration_subscribers.append(fn)

    # -- telemetry ingestion (wired to control channels by the agent layer) -------

    def ingest_load_report(self, device_id: int, utilization: float,
                           queue_depth: int) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        telemetry = self.board.get(device_id)
        if telemetry is not None:
            telemetry.observe(utilization, queue_depth, self.sim.now)

    def ingest_heartbeat(self, host_id: str) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        self.board.heartbeat(host_id, self.sim.now)

    def ingest_device_failure(self, device_id: int) -> None:
        """An agent reported a dead device: fail over its borrowers."""
        if self.down:
            self.dropped_while_down += 1
            return
        if self.board.get(device_id) is None:
            return
        self.board.mark_unhealthy(device_id)
        self._failover_device(device_id)

    def ingest_device_repaired(self, device_id: int) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        self.board.mark_healthy(device_id)
        # The promised repair retry: assignments stranded with no failover
        # target get another chance now that capacity returned.
        self._retry_pending_repairs()

    def ingest_mhd_failure(self, mhd_index: int) -> None:
        """A pool memory device (MHD) died — a *memory* failure domain.

        The channel/placement recovery itself is the pool layer's job
        (it owns the channels); the orchestrator records the event so the
        availability state of the pod is queryable from one place.
        """
        if self.down:
            self.dropped_while_down += 1
            return
        if mhd_index not in self._mhds_down:
            self._mhds_down.add(mhd_index)
            self.mhd_failures_seen += 1
            _instant("orch.mhd_down", self.sim.now, mhd=mhd_index)

    def ingest_mhd_repair(self, mhd_index: int) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        if mhd_index in self._mhds_down:
            self._mhds_down.discard(mhd_index)
            self.mhd_repairs_seen += 1
            _instant("orch.mhd_up", self.sim.now, mhd=mhd_index)
        self._retry_pending_repairs()

    def ingest_mhd_gray(self, mhd_index: int) -> None:
        """The pool's health monitor demoted a fail-slow MHD.

        Like :meth:`ingest_mhd_failure` this is bookkeeping — the channel
        rebuilds and placement avoidance are the pool layer's mechanism —
        but keeping the gray set here makes pod availability (down vs
        merely slow) queryable from one place.
        """
        if self.down:
            self.dropped_while_down += 1
            return
        if mhd_index not in self._mhds_gray:
            self._mhds_gray.add(mhd_index)
            self.mhd_grays_seen += 1
            _instant("orch.mhd_gray", self.sim.now, mhd=mhd_index)

    def ingest_mhd_reinstated(self, mhd_index: int) -> None:
        if self.down:
            self.dropped_while_down += 1
            return
        if mhd_index in self._mhds_gray:
            self._mhds_gray.discard(mhd_index)
            self.mhd_reinstates_seen += 1
            _instant("orch.mhd_reinstated", self.sim.now, mhd=mhd_index)

    def ingest_device_announce(self, host_id: str, device_id: int,
                               kind: str, healthy: bool) -> None:
        """Declarative device report from an agent (resync/recovery path).

        Registers the device if this orchestrator incarnation has never
        seen it, and reconciles its health with the agent's view.
        """
        if self.down:
            self.dropped_while_down += 1
            return
        if device_id not in self._records:
            self._records[device_id] = DeviceRecord(device_id, host_id,
                                                    kind)
            self.board.track(device_id, host_id, kind)
        if healthy:
            self.board.mark_healthy(device_id)
            self._retry_pending_repairs()
        else:
            self.board.mark_unhealthy(device_id)
            self._failover_device(device_id)

    def ingest_lease_renew(self, host_id: str, device_id: int,
                           token: int) -> Optional[Lease]:
        """An owner agent asks to renew (or re-acquire) a device lease.

        Returns the lease to grant back, or None to refuse (unknown
        device, or the requester is not the recorded owner).  Three
        paths:

        * current unexpired lease held by the same host → extend the
          term, token unchanged (also re-delivers the token to an agent
          that restarted and renews with ``token=0``);
        * no lease on file but the agent presents one (``token>0``) →
          *adopt* it: this orchestrator incarnation restarted and the
          agents are the source of truth, so keeping their token avoids
          fencing every borrower for no reason;
        * otherwise (expired, revoked, or a fresh agent) → mint a new
          term with a bumped token, fencing any straggler ops stamped
          with the old one.
        """
        if self.down:
            self.dropped_while_down += 1
            return None
        if host_id in self._quarantined_hosts:
            # Quarantined (work-silent) owner: refuse the renewal so its
            # current term simply runs out.  The owner self-fences at
            # expiry and the post-grace sweep starts a successor — the
            # one ordering that is safe when the remote daemon cannot be
            # told to step down.
            self.quarantine_refusals += 1
            return None
        record = self._records.get(device_id)
        if record is None or record.owner_host != host_id:
            return None
        now = self.sim.now
        lease = self.leases.current(device_id)
        if (lease is not None and now <= lease.expires_at_ns
                and lease.holder_host == host_id):
            lease = self.leases.renew(device_id, now)
        elif lease is None and token > 0:
            lease = self.leases.adopt(device_id, host_id, token, now)
            self._lease_reacquired(device_id)
        else:
            lease = self.leases.grant(device_id, host_id, now)
            self._lease_reacquired(device_id)
        return lease

    def _lease_reacquired(self, device_id: int) -> None:
        """A previously-fenced owner is serving again under a new term."""
        if device_id in self._lease_fenced:
            self._lease_fenced.discard(device_id)
            self.board.mark_healthy(device_id)
            _instant("orch.lease_reacquired", self.sim.now,
                     device=device_id)
            self._retry_pending_repairs()

    def _on_lease_expired(self, lease: Lease) -> None:
        """Expiry sweep hit: the owner stopped renewing — fail over.

        The owner self-fenced at ``expires_at_ns`` and the sweep only
        fires after the grace period on top of that, so the successor
        provably starts after the old owner stopped serving.
        """
        self.leases.revoke(lease.device_id)
        self.lease_expiries += 1
        _obs.METRICS.counter(_names.ORCH_LEASE_EXPIRED).inc()
        _instant("orch.lease_expired", self.sim.now,
                 device=lease.device_id, holder=lease.holder_host,
                 token=lease.token)
        self._lease_fenced.add(lease.device_id)
        self.board.mark_unhealthy(lease.device_id)
        self._failover_device(lease.device_id)

    def ingest_assignment_report(self, host_id: str, virtual_id: int,
                                 device_id: int, kind: str,
                                 generation: int) -> None:
        """Adopt a borrower-reported assignment (orchestrator restart).

        Agents are the source of truth across restarts: each borrower
        re-reports the assignments it holds and the table is rebuilt.
        Reports at or below an already-known generation are ignored, so
        replays and stale duplicates cannot roll the table back.
        """
        if self.down:
            self.dropped_while_down += 1
            return
        existing = self._assignments.get(virtual_id)
        if existing is not None:
            if generation > existing.generation:
                existing.device_id = device_id
                existing.generation = generation
            return
        assignment = Assignment(
            virtual_id=virtual_id,
            borrower_host=host_id,
            kind=kind,
            device_id=device_id,
            since_ns=self.sim.now,
            generation=generation,
        )
        self._assignments[virtual_id] = assignment
        self._next_virtual_id = max(self._next_virtual_id, virtual_id + 1)
        telemetry = self.board.get(device_id)
        if telemetry is not None and not telemetry.healthy:
            # The device died while we were down: fail the adopted
            # assignment over immediately.
            self._failover_assignment(assignment)

    # -- failover & balancing ---------------------------------------------------------

    def _failover_device(self, device_id: int) -> None:
        for assignment in self.assignments_on(device_id):
            self._failover_assignment(assignment)

    def _failover_assignment(self, assignment: Assignment) -> None:
        chosen = self.policy.choose(
            assignment.borrower_host, assignment.kind, self.board,
            self._active_counts(),
        )
        if chosen is None or chosen.device_id == assignment.device_id:
            # Nothing to fail over to: park the assignment on the
            # pending-repair queue; it is retried when a device is
            # repaired or registered.
            self._pending_repair.add(assignment.virtual_id)
            return
        old = assignment.device_id
        assignment.device_id = chosen.device_id
        assignment.since_ns = self.sim.now
        assignment.generation += 1
        self.failovers += 1
        _instant("orch.failover", self.sim.now,
                 virtual_id=assignment.virtual_id, old_device=old,
                 new_device=chosen.device_id)
        _obs.METRICS.counter(_names.ORCH_FAILOVERS).inc()
        self._pending_repair.discard(assignment.virtual_id)
        self._notify(assignment, old_device_id=old)

    def _retry_pending_repairs(self) -> int:
        """Re-place parked assignments; returns how many were healed."""
        healed = 0
        for virtual_id in sorted(self._pending_repair):
            assignment = self._assignments.get(virtual_id)
            if assignment is None:
                self._pending_repair.discard(virtual_id)
                continue
            telemetry = self.board.get(assignment.device_id)
            if telemetry is not None and telemetry.healthy:
                # The original device came back.  Rebind in place (same
                # device, new generation) so the borrower rebuilds its
                # datapath on the repaired hardware.
                assignment.since_ns = self.sim.now
                assignment.generation += 1
                self.repair_rebinds += 1
                self._pending_repair.discard(virtual_id)
                healed += 1
                self._notify(assignment,
                             old_device_id=assignment.device_id)
                continue
            chosen = self.policy.choose(
                assignment.borrower_host, assignment.kind, self.board,
                self._active_counts(),
            )
            if chosen is None or chosen.device_id == assignment.device_id:
                continue
            old = assignment.device_id
            assignment.device_id = chosen.device_id
            assignment.since_ns = self.sim.now
            assignment.generation += 1
            self.failovers += 1
            self._pending_repair.discard(virtual_id)
            healed += 1
            self._notify(assignment, old_device_id=old)
        return healed

    def rebalance_once(self, kind: str) -> bool:
        """Move one borrower from the hottest to the coldest device.

        Returns True if a migration was issued.
        """
        devices = self.board.devices(kind=kind, healthy_only=True)
        if len(devices) < 2:
            return False
        hottest = max(devices, key=lambda t: t.utilization)
        coldest = min(devices, key=lambda t: t.utilization)
        if hottest.utilization - coldest.utilization < self.rebalance_spread:
            return False
        movable = self.assignments_on(hottest.device_id)
        if not movable:
            return False
        assignment = movable[0]
        old = assignment.device_id
        assignment.device_id = coldest.device_id
        assignment.since_ns = self.sim.now
        assignment.generation += 1
        self.migrations += 1
        _instant("orch.migrate", self.sim.now,
                 virtual_id=assignment.virtual_id, old_device=old,
                 new_device=coldest.device_id, kind=kind)
        _obs.METRICS.counter(_names.ORCH_MIGRATIONS).inc()
        self._notify(assignment, old_device_id=old)
        return True

    # -- monitoring loop -----------------------------------------------------------------

    def start(self,
              check_interval_ns: float = MONITOR_CHECK_INTERVAL_NS) -> None:
        """Start the periodic monitor (dead agents, rebalancing)."""
        if self._monitor is not None:
            raise RuntimeError("orchestrator already started")
        self._check_interval_ns = check_interval_ns
        self._monitor = self.sim.spawn(
            self._monitor_loop(check_interval_ns), name="orchestrator"
        )

    def stop(self) -> None:
        if self._monitor is not None and self._monitor.is_alive:
            self._monitor.interrupt(cause="orchestrator stopped")
        self._monitor = None

    def crash(self) -> None:
        """Fault injection: the orchestrator process dies.

        All soft state — registry, assignment table, telemetry — is lost;
        ingestion drops everything until :meth:`restart`.  The virtual id
        counter survives (ids must stay unique across incarnations; think
        of it as coming from durable storage or a coordination service).
        """
        self.stop()
        self.down = True
        self._records = {}
        self._assignments = {}
        self._pending_repair = set()
        self.board = TelemetryBoard()
        # Leases are soft state too — but the token counters survive
        # (durable, like the virtual id counter): a new incarnation must
        # never re-mint a token some fenced server has already seen.
        self.leases.clear()
        self._lease_fenced = set()
        # Quarantine decisions are soft state too: the new incarnation
        # re-derives them from fresh telemetry (a still-stalled host goes
        # work-silent again within a few ticks).
        self._quarantined_hosts = set()
        self._stall_suspect_ticks = {}
        self._stall_clean_ticks = {}
        self._mhds_gray = set()

    def restart(self) -> None:
        """Come back up in a new epoch with an empty table.

        State is reconstructed from agent re-reports (DeviceAnnounce /
        AssignmentReport), solicited by a Resync broadcast — see
        :meth:`repro.core.PciePool.restart_orchestrator`.
        """
        if not self.down:
            raise RuntimeError("orchestrator is not down")
        self.down = False
        self.epoch = (self.epoch + 1) % 256
        self.start(self._check_interval_ns)

    def _monitor_loop(self, interval_ns: float):
        try:
            while True:
                yield self.sim.timeout(interval_ns)
                for lease in self.leases.expired(self.sim.now):
                    self._on_lease_expired(lease)
                for host in self.board.stale_agents(
                        self.sim.now, self.heartbeat_timeout_ns):
                    _instant("orch.host_down", self.sim.now, host=host)
                    for device_id in self.board.mark_host_down(host):
                        self._failover_device(device_id)
                self._check_work_silence()
                # Safety net: event-driven retries (repair, registration)
                # can race an outage, so sweep the pending queue each tick.
                if self._pending_repair:
                    self._retry_pending_repairs()
                for kind in {r.kind for r in self._records.values()}:
                    self.rebalance_once(kind)
        except Interrupt:
            return

    # -- gray agents: work-silence quarantine --------------------------------------------

    def _check_work_silence(self) -> None:
        """One quarantine tick: catch agents that heartbeat but do no work.

        A *stalled* agent is invisible to the crash detectors — its
        heartbeats and renewals keep flowing — so the signal is work
        silence: every healthy device the host owns stopped sending load
        reports for longer than ``work_silence_timeout_ns`` while the
        heartbeat stayed fresh.  Hysteresis on both edges: a host is
        quarantined only after ``HEALTH_GRAY_TICKS`` consecutive silent
        ticks, and reinstated only after ``HEALTH_PROBATION_TICKS``
        consecutive ticks with reports flowing again.
        """
        now = self.sim.now
        for host in self.board.agent_hosts():
            last_hb = self.board.last_heartbeat(host)
            if last_hb is None or now - last_hb > self.heartbeat_timeout_ns:
                # Dead-agent territory: the stale-heartbeat sweep owns it.
                self._stall_suspect_ticks.pop(host, None)
                self._stall_clean_ticks.pop(host, None)
                continue
            watched = [
                t for t in self.board.devices_owned_by(host)
                if t.ever_reported
                and (t.healthy or host in self._quarantined_hosts)
            ]
            if not watched:
                self._stall_suspect_ticks.pop(host, None)
                continue
            silent = all(
                now - t.last_report_ns > self.work_silence_timeout_ns
                for t in watched
            )
            if host in self._quarantined_hosts:
                if silent:
                    self._stall_clean_ticks[host] = 0
                else:
                    clean = self._stall_clean_ticks.get(host, 0) + 1
                    self._stall_clean_ticks[host] = clean
                    if clean >= HEALTH_PROBATION_TICKS:
                        self._reinstate_host(host)
            else:
                if silent:
                    streak = self._stall_suspect_ticks.get(host, 0) + 1
                    self._stall_suspect_ticks[host] = streak
                    if streak >= HEALTH_GRAY_TICKS:
                        self._quarantine_host(host)
                else:
                    self._stall_suspect_ticks[host] = 0

    def _quarantine_host(self, host: str) -> None:
        self._quarantined_hosts.add(host)
        self._stall_suspect_ticks.pop(host, None)
        self._stall_clean_ticks[host] = 0
        self.hosts_quarantined += 1
        self.stall_quarantine_log.append((host, self.sim.now))
        _obs.METRICS.counter(_names.ORCH_HOSTS_QUARANTINED).inc()
        _instant("orch.host_quarantined", self.sim.now, host=host)
        if _obs.RECORDER.enabled:
            # Quarantining an agent means gray failure was confirmed:
            # latch the flight recorder so a later bundle shows the
            # spans leading up to the demotion.
            _obs.RECORDER.trip(
                "host_quarantined", self.sim.now,
                detail=f"host={host} "
                       f"quarantined={len(self._quarantined_hosts)}",
            )
        # No force-expiry: the orchestrator cannot make the remote (and
        # by hypothesis wedged) daemon drop its leases first, so the only
        # fencing-safe demotion is refusing renewals (ingest_lease_renew)
        # and letting each term lapse — owner self-fence at expiry, sweep
        # failover at expiry + grace.

    def _reinstate_host(self, host: str) -> None:
        self._quarantined_hosts.discard(host)
        self._stall_clean_ticks.pop(host, None)
        self._stall_suspect_ticks.pop(host, None)
        self.hosts_reinstated += 1
        _obs.METRICS.counter(_names.ORCH_HOSTS_REINSTATED).inc()
        _instant("orch.host_reinstated", self.sim.now, host=host)

    @property
    def quarantined_hosts(self) -> list:
        return sorted(self._quarantined_hosts)

    @property
    def gray_mhds(self) -> list:
        return sorted(self._mhds_gray)

    # -- internals ----------------------------------------------------------------------------

    def _notify(self, assignment: Assignment,
                old_device_id: Optional[int]) -> None:
        for fn in self._migration_subscribers:
            fn(assignment, old_device_id)

    def __repr__(self) -> str:
        return (
            f"<Orchestrator devices={len(self._records)} "
            f"assignments={len(self._assignments)} "
            f"failovers={self.failovers} migrations={self.migrations}>"
        )
