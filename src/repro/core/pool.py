"""PciePool: the assembled system, and VirtualNic, its user-facing handle."""

from __future__ import annotations

from typing import Callable, Optional

from repro.channel.messages import Resync
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.link import LinkDownError, LinkSpec
from repro.cxl.params import (
    ADMISSION_RETRY_AFTER_NS,
    BROWNOUT_PRESSURE_NORM,
    BROWNOUT_PROBE_STRETCH,
    BROWNOUT_TICK_NS,
    JOURNAL_CAP_DEFAULT,
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


class PciePool:
    """A CXL pod whose PCIe devices form one software-managed pool."""

    def __init__(self, sim: Simulator, n_hosts: int = 4, n_mhds: int = 2,
                 mhd_capacity: int = 1 << 28,
                 link_spec: LinkSpec = LinkSpec(),
                 policy=None,
                 ctl_poll_ns: float = 5_000.0,
                 dev_poll_ns: float = 30.0,
                 lease_ttl_ns: Optional[float] = None,
                 lease_grace_ns: Optional[float] = None,
                 journal_cap: int = JOURNAL_CAP_DEFAULT):
        self.sim = sim
        # Polling cadences for the two channel classes.  Long chaos
        # campaigns relax these to keep the event budget sane; latency
        # benchmarks keep the defaults.
        self.ctl_poll_ns = ctl_poll_ns
        self.dev_poll_ns = dev_poll_ns
        self.pod = CxlPod(sim, PodConfig(
            n_hosts=n_hosts, n_mhds=n_mhds, mhd_capacity=mhd_capacity,
            link_spec=link_spec, local_dram_bytes=256 << 20,
        ))
        self.fabric = EthernetSwitch(sim)
        orch_kwargs = {}
        if lease_ttl_ns is not None:
            orch_kwargs["lease_ttl_ns"] = lease_ttl_ns
        if lease_grace_ns is not None:
            orch_kwargs["lease_grace_ns"] = lease_grace_ns
        self.orchestrator = Orchestrator(sim, policy=policy, **orch_kwargs)
        self.orchestrator_host = self.pod.host_ids[0]
        self.agents: dict[str, PoolingAgent] = {}
        self._devices: dict[int, object] = {}
        #: Physical topology (device -> attached host).  Kept pool-side so
        #: handles can be built even while the orchestrator's registry is
        #: down or being reconstructed.
        self._owners: dict[int, str] = {}
        self._device_servers: dict[tuple[str, str], tuple] = {}
        self._next_device_id = 1
        self._next_mac = 0x02_00_00_00_00_01
        self._started = False
        self._vnics: list[VirtualNic] = []
        #: Per-borrower-host op-id counters.  One DeviceServer serves
        #: exactly one borrower host, so host-unique ids are journal-safe
        #: even when a handle is re-resolved onto a different owner.
        self._op_counters: dict[str, int] = {}
        #: Hosts currently under an administrative control partition
        #: (re-applied when a control channel is rebuilt mid-partition).
        self._partitioned_hosts: set[str] = set()
        #: Datapath clients (vssd/vaccel) rebuilt on migration:
        #: virtual_id -> client with a ``failover(new_handle)`` process.
        self._failover_clients: dict[int, object] = {}
        # Memory RAS: MHD liveness probing + channel re-establishment.
        # The probe cadence must be well under the heartbeat timeout so a
        # dead MHD's control channels are rebuilt before stale heartbeats
        # trigger a wave of spurious host failovers.
        self.mhd_probe_ns = 10_000_000.0
        self._mhd_monitor = None
        self._mhd_down: set[int] = set()
        self.channels_rebuilt = 0
        #: Op-dedup journal depth handed to every DeviceServer.
        self.journal_cap = journal_cap
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
            self._make_agent(host_id)

    # -- construction -------------------------------------------------------------

    def _make_agent(self, host_id: str) -> None:
        orch_ep, agent_ep = RpcEndpoint.pair(
            self.pod, self.orchestrator_host, host_id,
            label=f"ctl:{host_id}",
            # Control traffic is period-10ms telemetry: lazy polling at
            # microsecond cadence costs nothing and saves polling CPU.
            poll_overhead_ns=self.ctl_poll_ns,
        )
        wire_control_channel(self.orchestrator, orch_ep, host_id)
        self.agents[host_id] = PoolingAgent(self.sim, host_id, agent_ep)
        self._device_servers[("__ctl__", host_id)] = (orch_ep, agent_ep)

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
        for vnic in self._vnics:
            vnic._teardown()
        for device in self._devices.values():
            if hasattr(device, "stop"):
                device.stop()
        # Close every channel endpoint: their dispatcher loops busy-poll
        # shared memory and would otherwise keep the simulation alive.
        for wired in self._device_servers.values():
            for item in wired:
                if isinstance(item, RpcEndpoint):
                    item.close()
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
            wired = self._device_servers.get((owner, borrower_host))
            if wired is None:
                return None
            return wired[1], lease.token
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
        key = (owner, borrower_host)
        wired = self._device_servers.get(key)
        if wired is None:
            owner_ep, borrower_ep = RpcEndpoint.pair(
                self.pod, owner, borrower_host,
                label=f"dev:{owner}->{borrower_host}",
                poll_overhead_ns=self.dev_poll_ns,
            )
            server = DeviceServer(owner_ep, journal_cap=self.journal_cap)
            self._device_servers[key] = (owner_ep, borrower_ep, server)
            wired = self._device_servers[key]
        server = wired[2]
        # The owner's agent pushes every lease change into the server, so
        # fencing is enforced the moment ownership state exists.
        self.agents[owner].attach_server(server)
        if device_id not in server.exported_ids:
            server.export(device)
        return RemoteDeviceHandle(
            wired[1], device_id,
            token=self.orchestrator.leases.token_of(device_id),
            op_id_source=lambda h=borrower_host: self.next_op_id(h),
            resolver=self._lease_resolver(borrower_host, device_id),
            budget=self.budget_for(borrower_host),
            pacer=self.pacer_for(borrower_host, device_id),
        )

    # -- virtual NICs ------------------------------------------------------------------

    def open_nic(self, host_id: str, n_desc: int = 64) -> "VirtualNic":
        """Allocate a NIC (local-first, else pooled) and build its stack."""
        assignment = self.orchestrator.request_device(host_id, KIND_NIC)
        vnic = VirtualNic(self, assignment, n_desc=n_desc)
        self._vnics.append(vnic)
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
        self.attach_failover_client(assignment.virtual_id, client)
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
        self.attach_failover_client(assignment.virtual_id, client)
        return client

    def attach_failover_client(self, virtual_id: int, client) -> None:
        """Have migrations of ``virtual_id`` drive ``client.failover``.

        The client must expose a ``failover(new_handle)`` process; the
        pool spawns it with a freshly-resolved handle each time the
        orchestrator rebinds the assignment to a different device.
        """
        self._failover_clients[virtual_id] = client

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
            return  # initial bind; open_nic builds the first stack itself
        for vnic in self._vnics:
            if vnic.assignment.virtual_id == assignment.virtual_id:
                # After an orchestrator restart the table holds fresh
                # Assignment objects; re-point the vnic before rebinding.
                vnic.assignment = assignment
                vnic._rebind()
        client = self._failover_clients.get(assignment.virtual_id)
        if client is not None:
            handle = self.handle_for(assignment.borrower_host,
                                     assignment.device_id)
            self.sim.spawn(
                client.failover(handle),
                name=f"client-failover:v{assignment.virtual_id}",
            )

    # -- fault injection & recovery (driven by repro.faults) -----------------

    def crash_agent(self, host_id: str) -> None:
        """The pooling agent daemon on ``host_id`` dies (soft state lost)."""
        self.agents[host_id].crash()

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
        for vnic in self._vnics:
            a = vnic.assignment
            if a.borrower_host == host_id:
                agent.adopt_assignment(a.virtual_id, a.device_id, a.kind,
                                       a.generation)
        # Re-front the device servers exporting this host's devices: the
        # restarted daemon holds no leases yet (its renewal loop
        # re-acquires within a tick), but the servers must be reachable
        # for the re-acquired leases to be pushed into.
        for key in sorted(self._device_servers):
            if key[0] == host_id:
                wired = self._device_servers[key]
                if len(wired) == 3:
                    agent.attach_server(wired[2])
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
        agent_ep = self._device_servers[("__ctl__", host_id)][1]
        agent_ep.partition()

    def heal_partition(self, host_id: str) -> None:
        self._partitioned_hosts.discard(host_id)
        agent_ep = self._device_servers[("__ctl__", host_id)][1]
        agent_ep.heal()

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
        for key in sorted(self._device_servers):
            if key[0] == "__ctl__":
                continue
            owner_host = key[0]
            wired = self._device_servers[key]
            server = wired[2]
            for device_id, state in sorted(server.lease_snapshot().items()):
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

    def crash_mhd(self, mhd_index: int) -> None:
        """A pool memory device dies: every host loses that failure domain."""
        self.pod.fail_mhd(mhd_index)

    def repair_mhd(self, mhd_index: int) -> None:
        self.pod.repair_mhd(mhd_index)

    def degrade_mhd(self, mhd_index: int, factor: float) -> None:
        """Collapse every link of one MHD to ``factor`` of its bandwidth."""
        self.pod.degrade_mhd(mhd_index, factor)

    def restore_mhd_bandwidth(self, mhd_index: int) -> None:
        self.pod.restore_mhd_bandwidth(mhd_index)

    def slow_mhd(self, mhd_index: int, factor: float) -> None:
        """Fail-slow: multiply one MHD's media latency (it stays up)."""
        self.pod.slow_mhd(mhd_index, factor)

    def restore_mhd_latency(self, mhd_index: int) -> None:
        self.pod.restore_mhd_latency(mhd_index)

    def stall_agent(self, host_id: str) -> None:
        """Gray agent: heartbeats and renewals continue, work does not."""
        self.agents[host_id].stall()

    def unstall_agent(self, host_id: str) -> None:
        self.agents[host_id].unstall()

    def poison_memory(self, addr: int, n_lines: int = 1) -> None:
        """Poison pool cachelines (uncorrectable media error)."""
        self.pod.poison(addr, n_lines)

    def crash_orchestrator(self) -> None:
        """The orchestrator process dies; its soft state is lost."""
        self.orchestrator.crash()

    def restart_orchestrator(self):
        """Process: restart the orchestrator and resync every agent.

        The new incarnation starts with an empty table in a new epoch and
        asks each agent (Resync RPC, retried) to replay its inventory and
        adopted assignments.  An agent that cannot be reached now is
        covered by its periodic announce.
        """
        self.orchestrator.restart()
        for host_id in self.pod.host_ids:
            orch_ep = self._device_servers[("__ctl__", host_id)][0]
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
        for wired in self._device_servers.values():
            for item in wired:
                if not isinstance(item, RpcEndpoint):
                    continue
                on_gray = bool(gray & set(item.mhd_footprint()))
                degrade = on_gray or demote_all
                if degrade and not item.tx.degraded:
                    item.demote_bursts()
                    self.burst_demotions += 1
                elif not degrade and item.tx.degraded:
                    item.promote_bursts()
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
        total = 0.0
        for wired in self._device_servers.values():
            for item in wired:
                if isinstance(item, DeviceServer):
                    total += item.admission_rejects
                elif isinstance(item, RpcEndpoint):
                    total += item.tx.saturated_events
        for budget in self._budgets.values():
            total += budget.denied
        return total

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

    def export_overload_telemetry(self) -> dict[str, float]:
        """Aggregate overload-control counters, also set as gauges."""
        totals = {
            "overload.admission_rejects": 0.0,
            "overload.ring_saturations": 0.0,
            "overload.retry_denials": 0.0,
            "overload.hedges_suppressed_total": 0.0,
            "overload.pacing_decreases": 0.0,
            "overload.brownout_level": float(self.brownout.level),
            "overload.brownout_transitions": float(
                len(self.brownout.transitions)),
        }
        for wired in self._device_servers.values():
            for item in wired:
                if isinstance(item, DeviceServer):
                    totals["overload.admission_rejects"] += (
                        item.admission_rejects)
                elif isinstance(item, RpcEndpoint):
                    totals["overload.ring_saturations"] += (
                        item.tx.saturated_events)
        for budget in self._budgets.values():
            totals["overload.retry_denials"] += budget.denied
            totals["overload.hedges_suppressed_total"] += (
                budget.hedges_suppressed)
        for pacer in self._pacers.values():
            totals["overload.pacing_decreases"] += pacer.decreases
        for name, value in totals.items():
            _obs.METRICS.gauge(name).set(value)
        return totals

    def _recover_from_mhd_loss(self, dead_mhd: int) -> None:
        """Re-establish everything that lived on a crashed MHD.

        Control channels are rebuilt in place (the agent swaps endpoints
        and resumes heartbeats); device channels are torn down and lazily
        recreated by the vNIC rebinds; vNICs whose rings or buffers
        touched the dead device are rebuilt on healthy media.  In-flight
        RPCs on dead channels are recovered end-to-end: every control and
        datapath caller retransmits idempotent requests with fresh ids.
        """
        rebind_vnics: dict[int, VirtualNic] = {}
        torn_down: set[tuple[str, str]] = set()
        for key in sorted(self._device_servers):
            wired = self._device_servers[key]
            endpoints = [x for x in wired if isinstance(x, RpcEndpoint)]
            if not any(dead_mhd in ep.mhd_footprint() for ep in endpoints):
                continue
            if key[0] == "__ctl__":
                self._rebuild_ctl_channel(key[1])
                continue
            owner, borrower = key
            for ep in endpoints:
                self._accumulate_integrity(ep)
                ep.close()
            self._free_channel_memory(endpoints[0])
            del self._device_servers[key]
            self.channels_rebuilt += 1
            torn_down.add((owner, borrower))
            for vnic in self._vnics:
                if (vnic.host_id == borrower
                        and self.owner_of(vnic.device_id) == owner):
                    rebind_vnics[vnic.assignment.virtual_id] = vnic
        # Buffers: any vNIC whose driver memory striped over the dead MHD
        # must re-place its rings and payload buffers on healthy media.
        for vnic in self._vnics:
            if vnic._mem is not None and dead_mhd in vnic._mem.mhd_footprint():
                rebind_vnics[vnic.assignment.virtual_id] = vnic
        for virtual_id in sorted(rebind_vnics):
            rebind_vnics[virtual_id]._rebind()
        # Datapath clients (vssd/vaccel) wired over a torn-down channel
        # hold a dead endpoint: refresh() alone cannot revive it, so
        # every op would ride the timeout->failover loop forever.  Drive
        # their failover with a freshly resolved handle — handle_for
        # lazily rebuilds the channel on healthy (non-avoided) media.
        for virtual_id in sorted(self._failover_clients):
            client = self._failover_clients[virtual_id]
            device_id = client.handle.device_id
            owner = self.owner_of(device_id)
            borrower = client.memsys.host_id
            if owner is None or (owner, borrower) not in torn_down:
                continue
            handle = self.handle_for(borrower, device_id)
            self.sim.spawn(
                client.failover(handle),
                name=f"client-rehome:v{virtual_id}",
            )

    def _rebuild_ctl_channel(self, host_id: str) -> None:
        """Re-pair one agent's control channel on healthy media."""
        old = self._device_servers[("__ctl__", host_id)]
        for item in old:
            if isinstance(item, RpcEndpoint):
                self._accumulate_integrity(item)
                item.close()
        self._free_channel_memory(old[0])
        orch_ep, agent_ep = RpcEndpoint.pair(
            self.pod, self.orchestrator_host, host_id,
            label=f"ctl:{host_id}",
            poll_overhead_ns=self.ctl_poll_ns,
        )
        wire_control_channel(self.orchestrator, orch_ep, host_id)
        self.agents[host_id].rebind_endpoint(agent_ep)
        if host_id in self._partitioned_hosts:
            agent_ep.partition()  # the rebuild must not lift a partition
        self._device_servers[("__ctl__", host_id)] = (orch_ep, agent_ep)
        self.channels_rebuilt += 1

    def _free_channel_memory(self, endpoint: RpcEndpoint) -> None:
        """Return a retired channel's ring allocations to the pool.

        Rings are retired first: a stale in-flight sender (a server
        handler mid-reply, a caller mid-retry) now fails like a dead
        link instead of writing into memory the allocator may already
        have handed to a rebuilt channel.
        """
        for ring in endpoint.rings:
            ring.retire()
            if ring.alloc is not None:
                try:
                    self.pod.free(ring.alloc)
                except ValueError:
                    pass  # already freed by a prior rebuild
                ring.alloc = None

    def _accumulate_integrity(self, ep: RpcEndpoint) -> None:
        acc = self._retired_integrity
        acc["rpc.slot_corruptions"] += ep.slot_corruptions
        acc["rpc.decode_errors"] += ep.decode_errors
        acc["ring.poison_hits"] += ep.rx.poison_hits + ep.tx.poison_hits
        acc["ring.crc_rejects"] += ep.rx.crc_rejects
        acc["ring.lost_slots"] += ep.rx.lost_slots

    def export_ras_telemetry(self) -> dict[str, float]:
        """Aggregate RAS/integrity counters, also set as gauges.

        Combines media-level poison accounting (from the pod), ring-level
        detection counters (live endpoints + those retired by rebuilds),
        and the recovery plane's own actions.
        """
        totals = dict(self._retired_integrity)
        for wired in self._device_servers.values():
            for item in wired:
                if not isinstance(item, RpcEndpoint):
                    continue
                totals["rpc.slot_corruptions"] += item.slot_corruptions
                totals["rpc.decode_errors"] += item.decode_errors
                totals["ring.poison_hits"] += (
                    item.rx.poison_hits + item.tx.poison_hits)
                totals["ring.crc_rejects"] += item.rx.crc_rejects
                totals["ring.lost_slots"] += item.rx.lost_slots
        for name, value in self.pod.ras_counters().items():
            totals[f"ras.{name}"] = float(value)
        totals["ras.stores_dropped"] = float(sum(
            memsys.stores_dropped for memsys in self.pod.hosts.values()))
        totals["ras.channels_rebuilt"] = float(self.channels_rebuilt)
        totals["ras.mhds_down_now"] = float(len(self._mhd_down))
        totals["ras.mhds_gray_now"] = float(len(self._mhd_gray))
        totals["ras.burst_demotions"] = float(self.burst_demotions)
        totals["ras.burst_promotions"] = float(self.burst_promotions)
        for name, value in totals.items():
            # Mirror into the process-wide registry so `repro metrics`
            # shows RAS health next to the latency histograms.
            _obs.METRICS.gauge(name).set(value)
        return totals

    def export_lease_telemetry(self) -> dict[str, float]:
        """Aggregate lease/fencing counters, the lease ones also as gauges."""
        leases = self.orchestrator.leases
        totals = {
            "lease.active": float(leases.active()),
            "lease.granted": float(leases.granted),
            "lease.renewed": float(leases.renewed),
            "lease.adopted": float(leases.adopted),
            "lease.expired": float(self.orchestrator.lease_expiries),
            "lease.agent_renewals": 0.0,
            "lease.agent_losses": 0.0,
            "proxy.fenced_ops": 0.0,
            "proxy.dup_suppressed": 0.0,
        }
        for agent in self.agents.values():
            totals["lease.agent_renewals"] += agent.lease_renewals
            totals["lease.agent_losses"] += agent.lease_losses
        for key, wired in self._device_servers.items():
            if key[0] == "__ctl__" or len(wired) < 3:
                continue
            totals["proxy.fenced_ops"] += wired[2].fenced_ops
            totals["proxy.dup_suppressed"] += wired[2].dup_suppressed
        for name, value in totals.items():
            if name.startswith("lease."):
                # The proxy.* names are live counters fed by the servers
                # themselves; re-registering them as gauges would clash.
                _obs.METRICS.gauge(name).set(value)
        return totals

    def export_control_plane_telemetry(self) -> dict[str, float]:
        """Aggregate endpoint retry counters, also set as gauges."""
        totals = {
            "rpc.retries": 0.0,
            "rpc.backoff_ns": 0.0,
            "rpc.timeouts": 0.0,
            "rpc.gave_up": 0.0,
            "rpc.late_replies_dropped": 0.0,
            "rpc.link_errors": 0.0,
        }
        for wired in self._device_servers.values():
            for item in wired:
                if not isinstance(item, RpcEndpoint):
                    continue
                totals["rpc.retries"] += item.retries
                totals["rpc.backoff_ns"] += item.backoff_ns_total
                totals["rpc.timeouts"] += item.calls_timed_out
                totals["rpc.gave_up"] += item.calls_gave_up
                totals["rpc.late_replies_dropped"] += (
                    item.late_replies_dropped)
                totals["rpc.link_errors"] += item.link_errors
        for name, value in totals.items():
            _obs.METRICS.gauge(name).set(value)
        return totals

    @property
    def gray_mhds(self) -> set:
        """MHD indices currently quarantined as fail-slow."""
        return set(self._mhd_gray)

    def __repr__(self) -> str:
        return (
            f"<PciePool hosts={len(self.pod.hosts)} "
            f"devices={len(self._devices)} vnics={len(self._vnics)}>"
        )


class VirtualNic:
    """A host's NIC-shaped view onto whatever the pool assigned it.

    Wraps a :class:`~repro.datapath.netstack.UdpStack` bound to the
    currently-assigned physical NIC.  When the orchestrator migrates the
    assignment (failover or load balancing) the stack is torn down and
    rebuilt on the replacement device; ``on_rebind`` callbacks fire so the
    application can re-bind its sockets.
    """

    def __init__(self, pool: PciePool, assignment: Assignment,
                 n_desc: int = 64):
        self.pool = pool
        self.assignment = assignment
        self.n_desc = n_desc
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
        if self in self.pool._vnics:
            self.pool._vnics.remove(self)

    # -- internals ---------------------------------------------------------------

    def _build(self) -> None:
        pool = self.pool
        device = pool.device(self.device_id)
        owner = pool.owner_of(self.device_id)
        handle = pool.handle_for(self.host_id, self.device_id)
        # Ring geometry is dictated by the device: the driver's CQ seq
        # tags and slot addressing must wrap exactly like the NIC's.
        self.n_desc = device.spec.n_desc
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
        self.stack = UdpStack(
            pool.sim, pool.pod.host(self.host_id), handle, self._mem,
            mac=device.mac, n_desc=self.n_desc,
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
