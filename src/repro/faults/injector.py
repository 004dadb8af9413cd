"""FaultInjector: apply fault schedules to a live pool on the sim clock.

The injector only touches *mechanism*: it fails devices and links and
kills daemon processes.  It never talks to the orchestrator on the
victims' behalf — detection and recovery must come from the control
plane itself (agent probes, heartbeat timeouts, the pending-repair
queue, Resync).  That separation is what makes the chaos tests honest.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.log import FaultLog
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.faults.spec import (
    AgentCrash,
    AgentStall,
    DeviceCrash,
    DeviceFlap,
    FaultSchedule,
    HostPartition,
    LeaseExpire,
    LinkDegrade,
    LinkFlap,
    MemPoison,
    MhdCrash,
    MhdDegrade,
    MhdSlow,
    OrchestratorCrash,
    OverloadStorm,
    OwnerKill,
)


class FaultInjector:
    """Applies faults to one :class:`~repro.core.PciePool`."""

    def __init__(self, pool, log: Optional[FaultLog] = None):
        self.pool = pool
        self.sim = pool.sim
        self.log = log if log is not None else FaultLog()

    def _record(self, kind: str, target: str, action: str) -> None:
        """Log a fault event; mirror it as a trace instant + counter.

        The FaultLog entry is written unconditionally (the chaos tests
        compare these logs bit-for-bit); the trace/metric side effects run
        only behind their own guards and never touch the sim clock.
        """
        self.log.record(self.sim.now, kind, target, action)
        if _obs.TRACER.enabled:
            _obs.TRACER.instant(
                f"fault:{kind}", self.sim.now,
                track="faults/injector", cat="fault",
                args={"target": target, "action": action},
            )
        _obs.METRICS.counter(_names.FAULTS_INJECTED).inc()

    # -- primitive verbs (immediate, also usable directly from tests) -------

    def crash_device(self, device_id: int) -> None:
        self.pool.device(device_id).fail()
        self._record("DeviceCrash", f"device:{device_id}", "fail")

    def repair_device(self, device_id: int) -> None:
        self.pool.device(device_id).repair()
        self._record("DeviceCrash", f"device:{device_id}", "repair")

    def _links(self, host_id: str, link_index: Optional[int]):
        links = self.pool.pod.host(host_id).port.links
        if link_index is None:
            return list(enumerate(links))
        return [(link_index, links[link_index])]

    def take_link_down(self, host_id: str,
                       link_index: Optional[int] = None) -> None:
        for idx, link in self._links(host_id, link_index):
            link.fail()
            self._record("LinkFlap", f"link:{host_id}/{idx}", "down")

    def bring_link_up(self, host_id: str,
                      link_index: Optional[int] = None) -> None:
        for idx, link in self._links(host_id, link_index):
            link.restore()
            self._record("LinkFlap", f"link:{host_id}/{idx}", "up")

    def crash_mhd(self, mhd_index: int) -> None:
        self.pool.crash_mhd(mhd_index)
        self._record("MhdCrash", f"mhd:{mhd_index}", "fail")

    def repair_mhd(self, mhd_index: int) -> None:
        self.pool.repair_mhd(mhd_index)
        self._record("MhdCrash", f"mhd:{mhd_index}", "repair")

    def degrade_mhd(self, mhd_index: int, factor: float) -> None:
        self.pool.degrade_mhd(mhd_index, factor)
        self._record("MhdDegrade", f"mhd:{mhd_index}", "degrade")

    def restore_mhd(self, mhd_index: int) -> None:
        self.pool.restore_mhd_bandwidth(mhd_index)
        self._record("MhdDegrade", f"mhd:{mhd_index}", "restore")

    def slow_mhd(self, mhd_index: int, factor: float) -> None:
        self.pool.slow_mhd(mhd_index, factor)
        self._record("MhdSlow", f"mhd:{mhd_index}", "slow")

    def restore_mhd_latency(self, mhd_index: int) -> None:
        self.pool.restore_mhd_latency(mhd_index)
        self._record("MhdSlow", f"mhd:{mhd_index}", "restore")

    def degrade_link(self, host_id: str, jitter_ns: float,
                     link_index: Optional[int] = None) -> None:
        for idx, link in self._links(host_id, link_index):
            link.set_jitter(
                jitter_ns,
                self.sim.rng.stream(f"link-jitter:{host_id}/{idx}"),
            )
            self._record("LinkDegrade", f"link:{host_id}/{idx}", "jitter")

    def restore_link_latency(self, host_id: str,
                             link_index: Optional[int] = None) -> None:
        for idx, link in self._links(host_id, link_index):
            link.clear_jitter()
            self._record("LinkDegrade", f"link:{host_id}/{idx}", "clear")

    def stall_agent(self, host_id: str) -> None:
        self.pool.stall_agent(host_id)
        self._record("AgentStall", f"agent:{host_id}", "stall")

    def unstall_agent(self, host_id: str) -> None:
        self.pool.unstall_agent(host_id)
        self._record("AgentStall", f"agent:{host_id}", "unstall")

    def poison_memory(self, addr: int, n_lines: int = 1) -> None:
        self.pool.poison_memory(addr, n_lines)
        self._record("MemPoison", f"mem:{addr:#x}+{n_lines}", "poison")

    def partition_host(self, host_id: str) -> None:
        self.pool.partition_host(host_id)
        self._record("HostPartition", f"host:{host_id}", "partition")

    def heal_partition(self, host_id: str) -> None:
        self.pool.heal_partition(host_id)
        self._record("HostPartition", f"host:{host_id}", "heal")

    def expire_lease(self, device_id: int) -> None:
        self.pool.expire_lease(device_id)
        self._record("LeaseExpire", f"device:{device_id}", "expire")

    def overload_storm(self, borrower_host: str, device_id: int,
                       duration_ns: float, depth: int = 32) -> None:
        """Start an open-loop request flood on one borrower->device path.

        Unlike the other verbs this breaks nothing — it spawns ``depth``
        storm clients (see :meth:`PciePool.overload_storm`) that stop on
        their own at ``now + duration_ns``.  One log entry marks the
        start; the storm's end is implicit in the duration.
        """
        self.pool.overload_storm(borrower_host, device_id,
                                 duration_ns, depth=depth)
        self._record("OverloadStorm",
                     f"path:{borrower_host}->device:{device_id}", "storm")

    def crash_agent(self, host_id: str) -> None:
        self.pool.crash_agent(host_id)
        self._record("AgentCrash", f"agent:{host_id}", "crash")

    def restart_agent(self, host_id: str) -> None:
        self.pool.restart_agent(host_id)
        self._record("AgentCrash", f"agent:{host_id}", "restart")

    def kill_owner(self, borrower_host: str, device_kind: str) -> str:
        """Partition the owner of ``borrower_host``'s ``device_kind``
        device, crash its agent and crash the device; returns the owner
        host.

        The device is resolved now, from the orchestrator's assignment
        table (the lowest virtual id if the borrower holds several).
        """
        device_id = next(
            (device for _vid, (borrower, k, device)
             in sorted(self.pool.orchestrator.assignment_table().items())
             if borrower == borrower_host and k == device_kind), None)
        if device_id is None:
            raise LookupError(
                f"OwnerKill: {borrower_host} holds no {device_kind} "
                "assignment")
        owner = self.pool.owner_of(device_id)
        self.partition_host(owner)
        self.crash_agent(owner)
        self.crash_device(device_id)
        return owner

    def crash_orchestrator(self) -> None:
        self.pool.crash_orchestrator()
        self._record("OrchestratorCrash", "orchestrator", "crash")

    def restart_orchestrator(self):
        """Process: restart + resync (delegates to the pool)."""
        self._record("OrchestratorCrash", "orchestrator", "restart")
        yield from self.pool.restart_orchestrator()

    # -- schedule execution --------------------------------------------------

    def run(self, schedule: FaultSchedule) -> list:
        """Spawn one driver process per fault; returns the processes.

        Each driver sleeps until its fault's ``at_ns``, applies it, then
        (if the spec says so) sleeps again and undoes it.  Drivers are
        independent, so overlapping faults compose naturally.
        """
        return [
            self.sim.spawn(
                self._drive(fault),
                name=f"fault:{index}:{type(fault).__name__}",
            )
            for index, fault in enumerate(schedule.sorted())
        ]

    def _drive(self, fault):
        delay = fault.at_ns - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        if isinstance(fault, DeviceCrash):
            self.crash_device(fault.device_id)
            if fault.repair_after_ns is not None:
                yield self.sim.timeout(fault.repair_after_ns)
                self.repair_device(fault.device_id)
        elif isinstance(fault, DeviceFlap):
            self.crash_device(fault.device_id)
            yield self.sim.timeout(fault.down_ns)
            self.repair_device(fault.device_id)
        elif isinstance(fault, LinkFlap):
            self.take_link_down(fault.host_id, fault.link_index)
            yield self.sim.timeout(fault.down_ns)
            self.bring_link_up(fault.host_id, fault.link_index)
        elif isinstance(fault, AgentCrash):
            self.crash_agent(fault.host_id)
            if fault.restart_after_ns is not None:
                yield self.sim.timeout(fault.restart_after_ns)
                self.restart_agent(fault.host_id)
        elif isinstance(fault, OrchestratorCrash):
            self.crash_orchestrator()
            if fault.restart_after_ns is not None:
                yield self.sim.timeout(fault.restart_after_ns)
                yield from self.restart_orchestrator()
        elif isinstance(fault, MhdCrash):
            self.crash_mhd(fault.mhd_index)
            if fault.repair_after_ns is not None:
                yield self.sim.timeout(fault.repair_after_ns)
                self.repair_mhd(fault.mhd_index)
        elif isinstance(fault, MhdDegrade):
            self.degrade_mhd(fault.mhd_index, fault.bandwidth_factor)
            yield self.sim.timeout(fault.down_ns)
            self.restore_mhd(fault.mhd_index)
        elif isinstance(fault, MemPoison):
            self.poison_memory(fault.addr, fault.n_lines)
        elif isinstance(fault, HostPartition):
            self.partition_host(fault.host_id)
            yield self.sim.timeout(fault.down_ns)
            self.heal_partition(fault.host_id)
        elif isinstance(fault, LeaseExpire):
            self.expire_lease(fault.device_id)
        elif isinstance(fault, MhdSlow):
            self.slow_mhd(fault.mhd_index, fault.latency_factor)
            yield self.sim.timeout(fault.down_ns)
            self.restore_mhd_latency(fault.mhd_index)
        elif isinstance(fault, LinkDegrade):
            self.degrade_link(fault.host_id, fault.jitter_ns,
                              fault.link_index)
            yield self.sim.timeout(fault.down_ns)
            self.restore_link_latency(fault.host_id, fault.link_index)
        elif isinstance(fault, AgentStall):
            self.stall_agent(fault.host_id)
            yield self.sim.timeout(fault.down_ns)
            self.unstall_agent(fault.host_id)
        elif isinstance(fault, OverloadStorm):
            self.overload_storm(fault.borrower_host, fault.device_id,
                                fault.duration_ns, fault.depth)
        elif isinstance(fault, OwnerKill):
            owner = self.kill_owner(fault.borrower_host, fault.device_kind)
            yield self.sim.timeout(fault.down_ns)
            self.heal_partition(owner)
        else:
            raise TypeError(f"unknown fault spec {fault!r}")

    def __repr__(self) -> str:
        return f"<FaultInjector events={len(self.log)}>"
