"""PciePool: the assembled system, and VirtualNic, its user-facing handle."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.channel.messages import Resync
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.link import LinkDownError
from repro.cxl.params import (
    ADMISSION_RETRY_AFTER_NS,
    BROWNOUT_PRESSURE_NORM,
    BROWNOUT_PROBE_STRETCH,
    BROWNOUT_TICK_NS,
)
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.netstack import UdpStack
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.datapath.proxy import (
    DeviceGoneError,
    DeviceServer,
    FencedError,
    LocalDeviceHandle,
    RemoteDeviceHandle,
)
from repro.health import (
    BROWNOUT_DEMOTE,
    BROWNOUT_SHED,
    AimdWindow,
    BrownoutController,
    HealthScorer,
    OverloadError,
    RetryBudget,
)
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.orchestrator import (
    Assignment,
    Orchestrator,
    PoolingAgent,
    wire_control_channel,
)
from repro.pcie.accelerator import Accelerator, AcceleratorSpec
from repro.pcie.device import DeviceFailedError
from repro.pcie.fabric import EthernetSwitch
from repro.pcie.nic import NicSpec
from repro.pcie.physnic import PhysicalNic
from repro.pcie.ssd import Ssd, SsdSpec
from repro.sim import Interrupt, Simulator

KIND_NIC = "nic"
KIND_SSD = "ssd"
KIND_ACCELERATOR = "accelerator"


class DevicePath(NamedTuple):
    """One owner->borrower forwarding channel and the server behind it."""

    owner_ep: RpcEndpoint
    borrower_ep: RpcEndpoint
    server: DeviceServer


def _add_integrity(totals: dict[str, float], ep: RpcEndpoint) -> None:
    """Add one endpoint's ring and RPC integrity counters to ``totals``."""
    totals["rpc.slot_corruptions"] += ep.slot_corruptions
    totals["rpc.decode_errors"] += ep.decode_errors
    totals["ring.poison_hits"] += ep.rx.poison_hits + ep.tx.poison_hits
    totals["ring.crc_rejects"] += ep.rx.crc_rejects
    totals["ring.lost_slots"] += ep.rx.lost_slots


class PciePool:
    """A CXL pod whose PCIe devices form one software-managed pool."""

    def __init__(self, sim: Simulator, n_hosts: int = 4, n_mhds: int = 2,
                 policy=None,
                 ctl_poll_ns: float = 5_000.0,
                 dev_poll_ns: float = 30.0):
        self.sim = sim
        # Polling cadences for the two channel classes.  Long chaos
        # campaigns relax these to keep the event budget sane; latency
        # benchmarks keep the defaults.
        self.ctl_poll_ns = ctl_poll_ns
        self.dev_poll_ns = dev_poll_ns
        self.pod = CxlPod(sim, PodConfig(
            n_hosts=n_hosts, n_mhds=n_mhds, mhd_capacity=1 << 28,
            local_dram_bytes=256 << 20,
        ))
        self.fabric = EthernetSwitch(sim)
        self.orchestrator = Orchestrator(sim, policy=policy)
        self.orchestrator_host = self.pod.host_ids[0]
        self.agents: dict[str, PoolingAgent] = {}
        self._devices: dict[int, object] = {}
        #: Physical topology (device -> attached host).  Kept pool-side so
        #: handles can be built even while the orchestrator's registry is
        #: down or being reconstructed.
        self._owners: dict[int, str] = {}
        #: Control channel per agent host: (orchestrator end, agent end).
        self._ctl: dict[str, tuple[RpcEndpoint, RpcEndpoint]] = {}
        #: Device channel per (owner, borrower) host pair, built on first
        #: use by ``handle_for``.
        self._paths: dict[tuple[str, str], DevicePath] = {}
        self._next_device_id = 1
        self._next_mac = 0x02_00_00_00_00_01
        self._started = False
        #: Every borrowed device's driver by virtual id: a VirtualNic, or
        #: a vSSD/vaccel client.  Each carries its current ``assignment``.
        self._borrowed: dict[int, object] = {}
        #: Per-borrower-host op-id counters.  One DeviceServer serves
        #: exactly one borrower host, so host-unique ids are journal-safe
        #: even when a handle is re-resolved onto a different owner.
        self._op_counters: dict[str, int] = {}
        #: Hosts currently under an administrative control partition
        #: (re-applied when a control channel is rebuilt mid-partition).
        self._partitioned_hosts: set[str] = set()
        # Memory RAS: MHD liveness probing + channel re-establishment.
        # The probe cadence must be well under the heartbeat timeout so a
        # dead MHD's control channels are rebuilt before stale heartbeats
        # trigger a wave of spurious host failovers.
        self.mhd_probe_ns = 10_000_000.0
        self._mhd_monitor = None
        self._mhd_down: set[int] = set()
        self.channels_rebuilt = 0
        # Gray-failure detection: the monitor times its RAS probes and
        # feeds a peer-relative scorer.  A demoted (gray) MHD is alive
        # but slow, so it is *quarantined* rather than declared dead:
        # message channels are rebuilt off it, new placements avoid it,
        # and channels stuck on it fall back to slot-at-a-time bursts.
        self._mhd_health = HealthScorer()
        for idx in range(len(self.pod.mhds)):
            self._mhd_health.track(f"mhd:{idx}")
        self._mhd_gray: set[int] = set()
        #: (mhd_index, detected_at_ns) per demotion, in detection order.
        self.mhd_gray_log: list = []
        self.burst_demotions = 0
        self.burst_promotions = 0
        # Overload control: one retry budget per borrower host (RPC
        # retries, failover replays, and hedges all draw on it) and one
        # AIMD pacing window per borrower<->device path (busy nacks and
        # piggybacked occupancy from both the RPC and CQ planes feed
        # the same window).  The brownout controller turns pod-wide
        # overload-event rates into shed levels; `_brownout_loop`
        # applies each rung's actions.
        self._budgets: dict[str, RetryBudget] = {}
        self._pacers: dict[tuple[str, int], AimdWindow] = {}
        self.brownout = BrownoutController()
        self._brownout_proc = None
        self._last_overload_events = 0.0
        self.overload_storms = 0
        _obs.METRICS.gauge(_names.OVERLOAD_PRESSURE)
        # Integrity counters of endpoints retired during channel rebuilds
        # (their live counters vanish with the endpoint objects).
        self._retired_integrity: dict[str, float] = {
            "rpc.slot_corruptions": 0.0,
            "rpc.decode_errors": 0.0,
            "ring.poison_hits": 0.0,
            "ring.crc_rejects": 0.0,
            "ring.lost_slots": 0.0,
        }
        self.orchestrator.on_migration(self._on_migration)
        for host_id in self.pod.host_ids:
            self.agents[host_id] = PoolingAgent(
                sim, host_id, self._wire_ctl(host_id))

    # -- construction -------------------------------------------------------------

    def _wire_ctl(self, host_id: str) -> RpcEndpoint:
        """Pair, wire and record ``host_id``'s control channel.

        Returns the agent's end.
        """
        orch_ep, agent_ep = RpcEndpoint.pair(
            self.pod, self.orchestrator_host, host_id,
            label=f"ctl:{host_id}",
            # Control traffic is period-10ms telemetry: lazy polling at
            # microsecond cadence costs nothing and saves polling CPU.
            poll_overhead_ns=self.ctl_poll_ns,
        )
        wire_control_channel(self.orchestrator, orch_ep, host_id)
        self._ctl[host_id] = (orch_ep, agent_ep)
        return agent_ep

    def endpoints(self):
        """Every live channel endpoint, in build order.

        Control pairs come first (all are built with the pool), then
        each device path's owner and borrower ends.  A rebuilt control
        channel keeps its place; a rebuilt device path goes last.
        """
        for pair in self._ctl.values():
            yield from pair
        for path in self._paths.values():
            yield path.owner_ep
            yield path.borrower_ep

    def add_nic(self, owner_host: str, spec: NicSpec = NicSpec(),
                n_vfs: int = 1) -> PhysicalNic:
        """Attach a new NIC to ``owner_host`` and pool its VFs.

        With ``n_vfs > 1`` the NIC exposes SR-IOV-style virtual
        functions: several hosts can borrow queue pairs of one physical
        port, sharing its line rate.
        """
        base_id = self._next_device_id
        self._next_device_id += n_vfs
        base_mac = self._next_mac
        self._next_mac += n_vfs
        pnic = PhysicalNic(
            self.sim, f"nic{base_id}@{owner_host}",
            base_device_id=base_id, base_mac=base_mac,
            n_vfs=n_vfs, spec=spec,
        )
        pnic.attach(self.pod.host(owner_host))
        pnic.plug_into(self.fabric)
        pnic.start()
        for vf in pnic.vfs:
            self._register(vf, owner_host, KIND_NIC)
        return pnic

    def add_ssd(self, owner_host: str, spec: SsdSpec = SsdSpec()) -> Ssd:
        device_id = self._next_device_id
        self._next_device_id += 1
        ssd = Ssd(self.sim, f"ssd{device_id}@{owner_host}",
                  device_id=device_id, spec=spec)
        ssd.attach(self.pod.host(owner_host))
        ssd.start()
        self._register(ssd, owner_host, KIND_SSD)
        return ssd

    def add_accelerator(self, owner_host: str,
                        spec: AcceleratorSpec = AcceleratorSpec()
                        ) -> Accelerator:
        device_id = self._next_device_id
        self._next_device_id += 1
        accel = Accelerator(self.sim, f"accel{device_id}@{owner_host}",
                            device_id=device_id, spec=spec)
        accel.attach(self.pod.host(owner_host))
        accel.start()
        self._register(accel, owner_host, KIND_ACCELERATOR)
        return accel

    def _register(self, device, owner_host: str, kind: str) -> None:
        self._devices[device.device_id] = device
        self._owners[device.device_id] = owner_host
        self.orchestrator.register_device(device.device_id, owner_host,
                                          kind)
        self.agents[owner_host].manage(device)
        if self._started:
            self._bootstrap_lease(device.device_id)

    def _bootstrap_lease(self, device_id: int) -> None:
        """Grant the owner its first lease, synchronously.

        Equivalent to the agent's first over-the-wire renewal (token 0 →
        fresh grant), issued directly at registration time — the same
        construction-time convention the rest of the pool uses.  Only
        started pools do this: without agent loops renewing, an armed
        lease would just expire and fence a perfectly healthy owner.
        """
        owner = self._owners[device_id]
        lease = self.orchestrator.ingest_lease_renew(owner, device_id, 0)
        if lease is not None:
            self.agents[owner].install_lease(
                device_id, lease.token, lease.expires_at_ns
            )

    def start(self) -> None:
        """Start the orchestrator, every agent, and the MHD monitor."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self.orchestrator.start()
        for agent in self.agents.values():
            agent.start()
        for device_id in sorted(self._devices):
            self._bootstrap_lease(device_id)
        self._mhd_monitor = self.sim.spawn(
            self._mhd_monitor_loop(), name="mhd-monitor"
        )
        self._brownout_proc = self.sim.spawn(
            self._brownout_loop(), name="brownout-monitor"
        )

    def stop(self) -> None:
        self.orchestrator.stop()
        if self._mhd_monitor is not None and self._mhd_monitor.is_alive:
            self._mhd_monitor.interrupt(cause="pool stopped")
        self._mhd_monitor = None
        if self._brownout_proc is not None and self._brownout_proc.is_alive:
            self._brownout_proc.interrupt(cause="pool stopped")
        self._brownout_proc = None
        for agent in self.agents.values():
            agent.stop()
        for driver in self._borrowed.values():
            if isinstance(driver, VirtualNic):
                driver._teardown()
        for device in self._devices.values():
            if hasattr(device, "stop"):
                device.stop()
        # Close every channel endpoint: their dispatcher loops busy-poll
        # shared memory and would otherwise keep the simulation alive.
        for endpoint in self.endpoints():
            endpoint.close()
        self._started = False

    # -- handles --------------------------------------------------------------------

    def device(self, device_id: int):
        dev = self._devices.get(device_id)
        if dev is None:
            raise KeyError(f"unknown device id {device_id}")
        return dev

    def owner_of(self, device_id: int) -> str:
        owner = self._owners.get(device_id)
        if owner is None:
            raise KeyError(f"unknown device id {device_id}")
        return owner

    def next_op_id(self, borrower_host: str) -> int:
        """Allocate an op id unique across all of a borrower's handles."""
        value = self._op_counters.get(borrower_host, 0) + 1
        self._op_counters[borrower_host] = value
        return value

    def budget_for(self, host_id: str) -> RetryBudget:
        """The per-client-host retry budget (created on first use).

        One bucket per borrower host: every recovery action that host
        takes — RPC retries, busy-nack re-submissions, hedges, failover
        replays — draws from the same pool, so the host's *combined*
        recovery amplification is what the ratio bounds.
        """
        budget = self._budgets.get(host_id)
        if budget is None:
            budget = RetryBudget(f"budget:{host_id}")
            self._budgets[host_id] = budget
        return budget

    def pacer_for(self, borrower_host: str, device_id: int) -> AimdWindow:
        """The AIMD window for one borrower<->device path."""
        key = (borrower_host, device_id)
        pacer = self._pacers.get(key)
        if pacer is None:
            pacer = AimdWindow(f"pace:{borrower_host}:dev{device_id}")
            self._pacers[key] = pacer
        return pacer

    def _lease_resolver(self, borrower_host: str, device_id: int):
        """Callback giving a handle the *current* (endpoint, token).

        Called synchronously by a fenced handle; ownership itself does
        not move between hosts (devices are physically attached), so
        re-resolution refreshes the fencing token and rides the cached
        owner<->borrower channel.
        """
        def resolve():
            lease = self.orchestrator.leases.current(device_id)
            if lease is None:
                return None
            owner = self._owners.get(device_id)
            if owner is None or owner == borrower_host:
                return None
            path = self._paths.get((owner, borrower_host))
            if path is None:
                return None
            return path.borrower_ep, lease.token
        return resolve

    def handle_for(self, borrower_host: str, device_id: int):
        """A device handle usable from ``borrower_host``.

        Local devices get plain MMIO handles; remote ones get ring-channel
        forwarding, creating (and caching) the owner<->borrower channel
        and device server on first use.  Remote handles are stamped with
        the device's current fencing token and re-resolve it through the
        orchestrator's lease table when fenced.
        """
        device = self.device(device_id)
        owner = self.owner_of(device_id)
        if owner == borrower_host:
            return LocalDeviceHandle(device)
        path = self._paths.get((owner, borrower_host))
        if path is None:
            owner_ep, borrower_ep = RpcEndpoint.pair(
                self.pod, owner, borrower_host,
                label=f"dev:{owner}->{borrower_host}",
                poll_overhead_ns=self.dev_poll_ns,
            )
            path = DevicePath(owner_ep, borrower_ep, DeviceServer(owner_ep))
            self._paths[(owner, borrower_host)] = path
        # The owner's agent pushes every lease change into the server, so
        # fencing is enforced the moment ownership state exists.
        self.agents[owner].attach_server(path.server)
        if device_id not in path.server.exported_ids:
            path.server.export(device)
        return RemoteDeviceHandle(
            path.borrower_ep, device_id,
            token=self.orchestrator.leases.token_of(device_id),
            op_id_source=lambda h=borrower_host: self.next_op_id(h),
            resolver=self._lease_resolver(borrower_host, device_id),
            budget=self.budget_for(borrower_host),
            pacer=self.pacer_for(borrower_host, device_id),
        )

    # -- virtual NICs ------------------------------------------------------------------

    def open_nic(self, host_id: str) -> "VirtualNic":
        """Allocate a NIC (local-first, else pooled) and build its stack."""
        assignment = self.orchestrator.request_device(host_id, KIND_NIC)
        vnic = VirtualNic(self, assignment)
        self._borrowed[assignment.virtual_id] = vnic
        return vnic

    def open_ssd(self, host_id: str, **kwargs) -> RemoteSsdClient:
        """Allocate a pooled SSD for ``host_id`` with failover wiring.

        The client's ring geometry follows the device, its handle is
        lease-fenced, and the pool re-establishes it (resubmitting any
        in-flight commands) whenever the orchestrator migrates the
        assignment.
        """
        assignment = self.orchestrator.request_device(host_id, KIND_SSD)
        device = self.device(assignment.device_id)
        kwargs.setdefault("n_entries", device.spec.n_sq_entries)
        kwargs.setdefault("name", f"vssd{assignment.virtual_id}@{host_id}")
        kwargs.setdefault("budget", self.budget_for(host_id))
        kwargs.setdefault(
            "pacer", self.pacer_for(host_id, assignment.device_id))
        client = RemoteSsdClient(
            self.sim, self.pod.host(host_id),
            self.handle_for(host_id, assignment.device_id), self.pod,
            owner_host=self.owner_of(assignment.device_id), **kwargs,
        )
        client.assignment = assignment
        self._borrowed[assignment.virtual_id] = client
        return client

    def open_accelerator(self, host_id: str,
                         **kwargs) -> RemoteAcceleratorClient:
        """Allocate a pooled accelerator for ``host_id`` (see open_ssd)."""
        assignment = self.orchestrator.request_device(
            host_id, KIND_ACCELERATOR
        )
        device = self.device(assignment.device_id)
        kwargs.setdefault("n_entries", device.spec.n_desc)
        kwargs.setdefault("name",
                          f"vaccel{assignment.virtual_id}@{host_id}")
        kwargs.setdefault("budget", self.budget_for(host_id))
        client = RemoteAcceleratorClient(
            self.sim, self.pod.host(host_id),
            self.handle_for(host_id, assignment.device_id), self.pod,
            owner_host=self.owner_of(assignment.device_id), **kwargs,
        )
        client.assignment = assignment
        self._borrowed[assignment.virtual_id] = client
        return client

    def _on_migration(self, assignment: Assignment,
                      old_device_id: Optional[int]) -> None:
        # The borrower's agent adopts every (re)bind: it is the durable
        # copy replayed to a restarted orchestrator.
        agent = self.agents.get(assignment.borrower_host)
        if agent is not None:
            agent.adopt_assignment(
                assignment.virtual_id, assignment.device_id,
                assignment.kind, assignment.generation,
            )
        if old_device_id is None:
            return  # initial bind; the open_* call builds the driver
        driver = self._borrowed.get(assignment.virtual_id)
        if driver is not None:
            # After an orchestrator restart the table holds fresh
            # Assignment objects; re-point the driver before rehoming.
            driver.assignment = assignment
            self._rehome(driver, "failover")

    def _rehome(self, driver, why: str) -> None:
        """Rebuild ``driver`` on its assignment's device.

        A vNIC rebuilds its stack at once; a vSSD/vaccel client runs its
        ``failover`` process with a freshly resolved handle (named
        ``client-<why>:v<id>``).
        """
        if isinstance(driver, VirtualNic):
            driver._rebind()
            return
        assignment = driver.assignment
        handle = self.handle_for(assignment.borrower_host,
                                 assignment.device_id)
        self.sim.spawn(driver.failover(handle),
                       name=f"client-{why}:v{assignment.virtual_id}")

    # -- fault injection & recovery (driven by repro.faults) -----------------

    def restart_agent(self, host_id: str) -> None:
        """Restart a crashed agent: re-scan the bus, re-learn adoptions.

        Mirrors what a restarted daemon does on a real host: enumerate
        locally-attached devices, read back the borrowed-device table from
        the driver layer, then resume reporting with an immediate
        declarative announce.
        """
        agent = self.agents[host_id]
        for device_id, owner in sorted(self._owners.items()):
            if owner == host_id:
                agent.manage(self._devices[device_id])
        for virtual_id in sorted(self._borrowed):
            a = self._borrowed[virtual_id].assignment
            if a.borrower_host == host_id:
                agent.adopt_assignment(a.virtual_id, a.device_id, a.kind,
                                       a.generation)
        # Re-front the device servers exporting this host's devices: the
        # restarted daemon holds no leases yet (its renewal loop
        # re-acquires within a tick), but the servers must be reachable
        # for the re-acquired leases to be pushed into.
        for (owner, _borrower), path in sorted(self._paths.items()):
            if owner == host_id:
                agent.attach_server(path.server)
        agent.start()
        self.sim.spawn(agent.announce(),
                       name=f"agent-reannounce:{host_id}")

    def partition_host(self, host_id: str) -> None:
        """Network-partition ``host_id``'s management plane.

        Only the *control* endpoint is severed: the host (and its device
        servers) keeps running and would happily keep serving borrowers —
        exactly the split-brain scenario the lease protocol must contain.
        The partitioned owner self-fences when its lease term runs out,
        strictly before the orchestrator's post-grace sweep reassigns.
        """
        self._partitioned_hosts.add(host_id)
        self._ctl[host_id][1].partition()

    def heal_partition(self, host_id: str) -> None:
        self._partitioned_hosts.discard(host_id)
        self._ctl[host_id][1].heal()

    def expire_lease(self, device_id: int) -> None:
        """Fault injection: force the lease on ``device_id`` to lapse.

        Ordering preserves the fencing invariant: the owner steps down
        *first* (servers fence), then the orchestrator's copy is
        backdated so its next sweep fails borrowers over to a successor.
        """
        owner = self._owners.get(device_id)
        if owner is not None:
            self.agents[owner].drop_lease(device_id)
        self.orchestrator.leases.force_expire(device_id, self.sim.now)

    def check_fencing_invariant(self) -> list[str]:
        """Assert "at most one unexpired lease holder serving per device".

        Returns human-readable violations (empty = invariant holds).  A
        server serving with an unexpired lease must hold the exact token
        the orchestrator believes is current, on the recorded owner host;
        while the orchestrator is down (no current lease) servers may
        legitimately serve out their terms, so only structural
        multi-holder conflicts are checkable then.
        """
        now = self.sim.now
        violations: list[str] = []
        serving: dict[int, set[str]] = {}
        for (owner_host, _borrower), path in sorted(self._paths.items()):
            for device_id, state in sorted(
                    path.server.lease_snapshot().items()):
                if state is None:
                    continue  # revoked: fenced, cannot serve
                token, expires_at_ns = state
                if now > expires_at_ns:
                    continue  # self-fenced at expiry
                serving.setdefault(device_id, set()).add(owner_host)
                current = self.orchestrator.leases.current(device_id)
                if current is None:
                    continue  # orchestrator down/restarting: term rides out
                if (current.token != token
                        or current.holder_host != owner_host):
                    violations.append(
                        f"device {device_id}: server on {owner_host} "
                        f"serves with token {token}, orchestrator says "
                        f"token {current.token} held by "
                        f"{current.holder_host}"
                    )
        violations.extend(
            f"device {device_id}: multiple unexpired holders "
            f"serving: {sorted(hosts)}"
            for device_id, hosts in sorted(serving.items())
            if len(hosts) > 1
        )
        return violations

    def restart_orchestrator(self):
        """Process: restart the orchestrator and resync every agent.

        The new incarnation starts with an empty table in a new epoch and
        asks each agent (Resync RPC, retried) to replay its inventory and
        adopted assignments.  An agent that cannot be reached now is
        covered by its periodic announce.
        """
        self.orchestrator.restart()
        for host_id in self.pod.host_ids:
            orch_ep = self._ctl[host_id][0]
            try:
                yield from orch_ep.call_with_retry(
                    Resync(request_id=0, epoch=self.orchestrator.epoch),
                    timeout_ns=2_000_000.0,
                )
            except RpcError:
                continue  # periodic announce is the backstop

    # -- memory RAS: MHD liveness + channel re-establishment ------------------

    def _mhd_monitor_loop(self):
        """Process: probe every MHD and re-home channels off dead ones.

        Detection is heartbeat-over-a-surviving-MHD: the probe itself is
        an uncached load issued from the orchestrator host, so as long as
        one MHD survives, the monitor keeps running and can observe the
        others' deaths.
        """
        memsys = self.pod.host(self.orchestrator_host)
        try:
            while True:
                yield self.sim.timeout(self._probe_interval_ns())
                for idx in range(len(self.pod.mhds)):
                    probe_start = self.sim.now
                    alive = yield from self._probe_mhd(memsys, idx)
                    if not alive and idx not in self._mhd_down:
                        self._mhd_down.add(idx)
                        self.orchestrator.ingest_mhd_failure(idx)
                        self._recover_from_mhd_loss(idx)
                    elif alive and idx in self._mhd_down:
                        self._mhd_down.discard(idx)
                        self.orchestrator.ingest_mhd_repair(idx)
                    if alive:
                        # The probe RTT doubles as the gray signal: a
                        # fail-slow MHD answers, just 10x later.
                        self._mhd_health.observe(
                            f"mhd:{idx}", self.sim.now - probe_start)
                for key, transition in self._mhd_health.evaluate():
                    idx = int(key.split(":", 1)[1])
                    if transition == "demote":
                        self._on_mhd_gray(idx)
                    else:
                        self._on_mhd_reinstated(idx)
        except Interrupt:
            return

    def _probe_interval_ns(self) -> float:
        """MHD probe cadence, stretched while the pod is browning out.

        Probes are background work: under overload they are the first
        thing shed (level >= 1), freeing channel and memory bandwidth
        for admitted ops and lease renewals.  The stretch keeps the
        cadence bounded — detection slows, it does not stop.
        """
        if self.brownout.level >= BROWNOUT_SHED:
            return self.mhd_probe_ns * BROWNOUT_PROBE_STRETCH
        return self.mhd_probe_ns

    def _probe_mhd(self, memsys, idx: int):
        """Process: one uncached read against an MHD's RAS window."""
        try:
            yield from memsys.load_line_uncached(self.pod.ras_probe_addr(idx))
        except PoisonedMemoryError:
            return True  # the device answered; the line is merely poisoned
        except LinkDownError:
            return False
        return True

    def _on_mhd_gray(self, idx: int) -> None:
        """Quarantine a fail-slow MHD (it is alive — no data is lost).

        Same rebuild machinery as MHD death moves the message channels
        and striped driver buffers onto healthy media, but placements are
        merely *steered away* (``avoid_mhd``), not forbidden: with no
        healthy alternative the allocator still falls back to the gray
        device, and whatever lands there runs demoted to slot-at-a-time.
        """
        if idx in self._mhd_gray or idx in self._mhd_down:
            return
        self._mhd_gray.add(idx)
        self.mhd_gray_log.append((idx, self.sim.now))
        self.pod.avoid_mhd(idx)
        self.orchestrator.ingest_mhd_gray(idx)
        self._recover_from_mhd_loss(idx)
        self._refresh_burst_mode()

    def _on_mhd_reinstated(self, idx: int) -> None:
        """A quarantined MHD served a clean probation: trust it again."""
        if idx not in self._mhd_gray:
            return
        self._mhd_gray.discard(idx)
        self.pod.allow_mhd(idx)
        self.orchestrator.ingest_mhd_reinstated(idx)
        self._refresh_burst_mode()

    def _refresh_burst_mode(self) -> None:
        """Match every channel's burst mode to the gray set and brownout.

        Channels still footprinted on gray media (the allocator had no
        healthy fallback) degrade to slot-at-a-time transfers — no
        multi-slot streaming window reads over fail-slow media, which
        keeps individual op latency bounded; everything else runs full
        bursts.  A level-2 brownout demotes *every* channel the same
        way: under overload, slot-at-a-time transfers spread channel
        occupancy so lease renewals and admitted ops interleave instead
        of queueing behind multi-slot streams.
        """
        gray = self._mhd_gray
        demote_all = self.brownout.level >= BROWNOUT_DEMOTE
        for endpoint in self.endpoints():
            degrade = demote_all or bool(gray & endpoint.mhd_footprint())
            if degrade and not endpoint.tx.degraded:
                endpoint.demote_bursts()
                self.burst_demotions += 1
            elif not degrade and endpoint.tx.degraded:
                endpoint.promote_bursts()
                self.burst_promotions += 1

    # -- overload: brownout ladder + storm injection ---------------------------

    def _brownout_loop(self):
        """Process: evaluate overload pressure and apply the ladder.

        Pressure is the pod-wide rate of *refusals*: admission rejects
        at device servers, retry-budget denials, and bounded ring-wait
        saturations, normalized per tick.  These are exactly the events
        that exist only when some queue is full — an idle or merely busy
        pod reads 0.0 and the ladder stays at NORMAL forever.
        """
        try:
            while True:
                yield self.sim.timeout(BROWNOUT_TICK_NS)
                total = self._overload_events()
                delta = max(0.0, total - self._last_overload_events)
                self._last_overload_events = total
                pressure = min(1.0, delta / BROWNOUT_PRESSURE_NORM)
                _obs.METRICS.gauge(_names.OVERLOAD_PRESSURE).set(pressure)
                prev = self.brownout.level
                level = self.brownout.update(pressure, self.sim.now)
                if level != prev:
                    self._apply_brownout(prev, level)
        except Interrupt:
            return

    def _overload_events(self) -> float:
        """Cumulative count of overload refusals across the pod."""
        return float(
            sum(path.server.admission_rejects
                for path in self._paths.values())
            + sum(endpoint.tx.saturated_events
                  for endpoint in self.endpoints())
            + sum(budget.denied for budget in self._budgets.values()))

    def _apply_brownout(self, prev: int, level: int) -> None:
        """Apply one rung transition's actions.

        Level >= 1 sheds background work: agents stop announcing and
        probing (lease renewals keep running — they are the one thing
        overload must never delay), and the MHD probe cadence
        stretches.  Level 2 additionally demotes burst batching on
        every channel.  Descending undoes each in reverse.
        """
        if level > prev and _obs.RECORDER.enabled:
            # Escalation (never descent) is a post-mortem moment: the
            # recorder latches the spans of the ops that drove pressure
            # up so a bundle explains why load shedding kicked in.
            _obs.RECORDER.trip(
                "brownout_escalation", self.sim.now,
                detail=f"level={prev}->{level}",
            )
        for host_id in sorted(self.agents):
            self.agents[host_id].set_shed_level(level)
        if (level >= BROWNOUT_DEMOTE) != (prev >= BROWNOUT_DEMOTE):
            self._refresh_burst_mode()

    def overload_storm(self, borrower_host: str, device_id: int,
                       duration_ns: float, depth: int = 32) -> None:
        """Fault injection: flood one borrower->device forwarding path.

        Spawns ``depth`` open-loop workers that hammer forwarded
        register reads until the deadline — enough concurrency to pin
        the device server at its admission cap.  The workers ride the
        normal client machinery (busy-nack pacing, retry budget), so
        the storm exercises the full overload-control stack rather
        than bypassing it.
        """
        self.overload_storms += 1
        _obs.METRICS.counter(_names.FAULTS_OVERLOAD_STORMS).inc()
        handle = self.handle_for(borrower_host, device_id)
        deadline = self.sim.now + duration_ns
        for i in range(depth):
            self.sim.spawn(
                self._storm_worker(handle, deadline),
                name=f"storm:{borrower_host}:d{device_id}.{i}",
            )

    def _storm_worker(self, handle, deadline_ns: float):
        """Process: one open-loop storm client (see overload_storm)."""
        while self.sim.now < deadline_ns:
            try:
                yield from handle.read_register(0x18)
            except (OverloadError, RpcError, LinkDownError,
                    DeviceGoneError, DeviceFailedError):
                # Refused or failed: an open-loop source does not slow
                # down — that is what makes it a storm.  The pause is
                # the admission layer's retry-after hint, nothing more.
                yield self.sim.timeout(ADMISSION_RETRY_AFTER_NS)

    def _recover_from_mhd_loss(self, dead_mhd: int) -> None:
        """Re-establish everything that lived on a crashed MHD.

        Control channels are rebuilt in place (the agent swaps endpoints
        and resumes heartbeats); device channels are torn down and
        lazily recreated when the drivers over them are rehomed.  In-flight
        RPCs on dead channels are recovered end-to-end: every control and
        datapath caller retransmits idempotent requests with fresh ids.
        """
        def on_dead_mhd(endpoints) -> bool:
            return any(dead_mhd in ep.mhd_footprint() for ep in endpoints)

        for host_id in sorted(self._ctl):
            if on_dead_mhd(self._ctl[host_id]):
                self._rebuild_ctl_channel(host_id)
        torn_down: set[tuple[str, str]] = set()
        for (owner, borrower), path in sorted(self._paths.items()):
            ends = (path.owner_ep, path.borrower_ep)
            if not on_dead_mhd(ends):
                continue
            self._retire_channel(*ends)
            del self._paths[(owner, borrower)]
            self.channels_rebuilt += 1
            torn_down.add((owner, borrower))
        for _virtual_id, driver in sorted(self._borrowed.items()):
            a = driver.assignment
            # A driver over a torn-down channel holds a dead endpoint
            # that refresh() cannot revive; rehoming resolves a fresh
            # handle, and handle_for rebuilds the channel on healthy
            # media.  A vNIC whose driver memory touched the dead MHD is
            # rebuilt too: it replays unfinished frames from its own TX
            # journal.  A client is not: its failover re-posts entries
            # that point at its old buffers.
            if ((self._owners[a.device_id], a.borrower_host) in torn_down
                    or (isinstance(driver, VirtualNic)
                        and driver._mem is not None
                        and dead_mhd in driver._mem.mhd_footprint())):
                self._rehome(driver, "rehome")

    def _rebuild_ctl_channel(self, host_id: str) -> None:
        """Re-pair one agent's control channel on healthy media."""
        self._retire_channel(*self._ctl[host_id])
        agent_ep = self._wire_ctl(host_id)
        self.agents[host_id].rebind_endpoint(agent_ep)
        if host_id in self._partitioned_hosts:
            agent_ep.partition()  # the rebuild must not lift a partition
        self.channels_rebuilt += 1

    def _retire_channel(self, *endpoints: RpcEndpoint) -> None:
        """Close a channel's ends and return its rings to the pool.

        Each end's integrity counters are banked first (they vanish
        with the endpoint).  Rings are retired before they are freed: a
        stale in-flight sender (a server handler mid-reply, a caller
        mid-retry) now fails like a dead link instead of writing into
        memory the allocator may already have handed to a rebuilt
        channel.
        """
        for endpoint in endpoints:
            _add_integrity(self._retired_integrity, endpoint)
            endpoint.close()
        for ring in endpoints[0].rings:
            ring.retire()
            if ring.alloc is not None:
                try:
                    self.pod.free(ring.alloc)
                except ValueError:
                    pass  # already freed by a prior rebuild
                ring.alloc = None

    def telemetry(self) -> dict[str, float]:
        """Pool-wide totals, each but ``proxy.*`` also set as a gauge.

        In order: RPC retry counters; ring and RPC integrity counters
        (live endpoints plus those retired by channel rebuilds), media
        poison accounting and the recovery plane's own actions;
        overload control; leases and fencing.  The ``proxy.*`` names are
        live counters fed by the servers themselves; re-registering them
        as gauges would clash.
        """
        totals = dict.fromkeys(
            ("rpc.retries", "rpc.backoff_ns", "rpc.timeouts",
             "rpc.gave_up", "rpc.late_replies_dropped", "rpc.link_errors"),
            0.0)
        totals.update(self._retired_integrity)
        saturations = 0.0
        for endpoint in self.endpoints():
            totals["rpc.retries"] += endpoint.retries
            totals["rpc.backoff_ns"] += endpoint.backoff_ns_total
            totals["rpc.timeouts"] += endpoint.calls_timed_out
            totals["rpc.gave_up"] += endpoint.calls_gave_up
            totals["rpc.late_replies_dropped"] += (
                endpoint.late_replies_dropped)
            totals["rpc.link_errors"] += endpoint.link_errors
            _add_integrity(totals, endpoint)
            saturations += endpoint.tx.saturated_events
        for name, value in self.pod.ras_counters().items():
            totals[f"ras.{name}"] = float(value)
        servers = [path.server for path in self._paths.values()]
        budgets = self._budgets.values()
        agents = self.agents.values()
        leases = self.orchestrator.leases
        totals.update({
            "ras.stores_dropped": float(sum(
                memsys.stores_dropped for memsys in self.pod.hosts.values())),
            "ras.channels_rebuilt": float(self.channels_rebuilt),
            "ras.mhds_down_now": float(len(self._mhd_down)),
            "ras.mhds_gray_now": float(len(self._mhd_gray)),
            "ras.burst_demotions": float(self.burst_demotions),
            "ras.burst_promotions": float(self.burst_promotions),
            "overload.admission_rejects": float(sum(
                server.admission_rejects for server in servers)),
            "overload.ring_saturations": saturations,
            "overload.retry_denials": float(sum(
                budget.denied for budget in budgets)),
            "overload.hedges_suppressed_total": float(sum(
                budget.hedges_suppressed for budget in budgets)),
            "overload.pacing_decreases": float(sum(
                pacer.decreases for pacer in self._pacers.values())),
            "overload.brownout_level": float(self.brownout.level),
            "overload.brownout_transitions": float(
                len(self.brownout.transitions)),
            "lease.active": float(leases.active()),
            "lease.granted": float(leases.granted),
            "lease.renewed": float(leases.renewed),
            "lease.adopted": float(leases.adopted),
            "lease.expired": float(self.orchestrator.lease_expiries),
            "lease.agent_renewals": float(sum(
                agent.lease_renewals for agent in agents)),
            "lease.agent_losses": float(sum(
                agent.lease_losses for agent in agents)),
            "proxy.fenced_ops": float(sum(
                server.fenced_ops for server in servers)),
            "proxy.dup_suppressed": float(sum(
                server.dup_suppressed for server in servers)),
        })
        for name, value in totals.items():
            if not name.startswith("proxy."):
                _obs.METRICS.gauge(name).set(value)
        return totals

    @property
    def gray_mhds(self) -> set:
        """MHD indices currently quarantined as fail-slow."""
        return set(self._mhd_gray)

    def __repr__(self) -> str:
        return (
            f"<PciePool hosts={len(self.pod.hosts)} "
            f"devices={len(self._devices)} borrowed={len(self._borrowed)}>"
        )


class VirtualNic:
    """A host's NIC-shaped view onto whatever the pool assigned it.

    Wraps a :class:`~repro.datapath.netstack.UdpStack` bound to the
    currently-assigned physical NIC.  When the orchestrator migrates the
    assignment (failover or load balancing) the stack is torn down and
    rebuilt on the replacement device; ``on_rebind`` callbacks fire so the
    application can re-bind its sockets.
    """

    def __init__(self, pool: PciePool, assignment: Assignment):
        self.pool = pool
        self.assignment = assignment
        self.stack: Optional[UdpStack] = None
        self.generation = 0
        self.start_failures = 0
        self.on_rebind: list[Callable[["VirtualNic"], None]] = []
        self._mem: Optional[DriverMemory] = None
        self._build()

    @property
    def host_id(self) -> str:
        return self.assignment.borrower_host

    @property
    def device_id(self) -> int:
        return self.assignment.device_id

    @property
    def mac(self) -> int:
        return self.pool.device(self.device_id).mac

    @property
    def is_remote(self) -> bool:
        return self.pool.owner_of(self.device_id) != self.host_id

    def start(self):
        """Process: configure the NIC and start the stack."""
        yield from self.stack.start()

    def close(self) -> None:
        """Release the assignment and tear the stack down.

        After closing, the orchestrator will not rebind this virtual NIC
        on failover or rebalancing.
        """
        self._teardown()
        self.pool.orchestrator.release(self.assignment.virtual_id)
        agent = self.pool.agents.get(self.host_id)
        if agent is not None:
            agent.abandon_assignment(self.assignment.virtual_id)
        self.pool._borrowed.pop(self.assignment.virtual_id, None)

    # -- internals ---------------------------------------------------------------

    def _build(self) -> None:
        pool = self.pool
        device = pool.device(self.device_id)
        owner = pool.owner_of(self.device_id)
        handle = pool.handle_for(self.host_id, self.device_id)
        if owner == self.host_id:
            placement = BufferPlacement.LOCAL
            owners = [self.host_id]
        else:
            placement = BufferPlacement.CXL
            owners = sorted({self.host_id, owner})
        self._mem = DriverMemory(
            pool.pod.host(self.host_id), pool.pod, placement,
            owners=owners,
            label=f"vnic{self.assignment.virtual_id}.g{self.generation}",
        )
        # Ring geometry is dictated by the device: the driver's CQ seq
        # tags and slot addressing must wrap exactly like the NIC's.
        self.stack = UdpStack(
            pool.sim, pool.pod.host(self.host_id), handle, self._mem,
            mac=device.mac, n_desc=device.spec.n_desc,
            name=f"vnic{self.assignment.virtual_id}@{self.host_id}",
            tx_hint=device.tx_cq_hint, rx_hint=device.rx_cq_hint,
            budget=pool.budget_for(self.host_id),
        )

    def _rebind(self) -> None:
        """Rebuild on the newly-assigned device (called by the pool).

        The dead generation's stack and driver memory are kept alive
        until its TX completion queue has been drained: completions the
        old owner managed to write before dying identify frames that
        must not be replayed on the successor.
        """
        old_stack = self.stack
        old_mem = self._mem
        if old_stack is not None:
            old_stack.stop()
        self._mem = None  # _build allocates the next generation's memory
        self.generation += 1
        self._build()
        self.pool.sim.spawn(
            self._failover_start(self.stack, old_stack, old_mem),
            name=f"vnic-restart:{self.assignment.virtual_id}",
        )
        for fn in self.on_rebind:
            fn(self)

    def _failover_start(self, stack: UdpStack,
                        old_stack: Optional[UdpStack],
                        old_mem: Optional[DriverMemory]):
        """Process: drain the old generation, start the new, replay TX."""
        frames: list = []
        if old_stack is not None:
            yield from old_stack.drain_tx_for_failover()
            frames = old_stack.unfinished_tx()
        if old_mem is not None:
            old_mem.release()
        started = yield from self._guarded_start(stack)
        if not started or self.stack is not stack:
            return  # a newer rebind replays from its own journal
        for frame in frames:
            try:
                yield from stack.resend_frame(frame)
            except (DeviceGoneError, DeviceFailedError,
                    LinkDownError, RpcError):
                return

    def _guarded_start(self, stack: UdpStack):
        """Process: start a rebuilt stack without crashing the sim.

        A rebind can race the very fault that caused it: the replacement
        device may die (give up — the orchestrator will migrate again
        and a fresh rebind supersedes this one), ownership may still be
        settling (fenced: re-resolve the token and retry), or a link may
        still be flapping (keep retrying the bring-up until it sticks).
        Returns True when the stack came up.
        """
        for _ in range(200):
            try:
                yield from stack.start()
                return True
            except FencedError:
                self.start_failures += 1
                stack.stop()  # reset driver state for the retry
                if self.stack is not stack:
                    return False
                stack.handle.refresh()
                yield self.pool.sim.timeout(5_000_000.0)
            except (DeviceGoneError, DeviceFailedError):
                # Includes DeviceWithdrawnError: the assignment is gone
                # and only a fresh rebind can revive this vnic.
                self.start_failures += 1
                return False
            except (LinkDownError, RpcError):
                self.start_failures += 1
                stack.stop()  # reset driver state for the retry
                if self.stack is not stack:
                    return False  # a newer rebind owns the vnic now
                yield self.pool.sim.timeout(5_000_000.0)
        return False

    def _teardown(self) -> None:
        if self.stack is not None:
            self.stack.stop()
        if self._mem is not None:
            self._mem.release()
            self._mem = None

    def __repr__(self) -> str:
        return (
            f"<VirtualNic v{self.assignment.virtual_id} "
            f"host={self.host_id} device={self.device_id} "
            f"gen{self.generation} {'remote' if self.is_remote else 'local'}>"
        )
