"""Device telemetry: what the orchestrator knows about every device.

Agents report utilization and health over the control channels; the
orchestrator keeps the latest view per device plus liveness bookkeeping
for the agents themselves (a silent agent means a host — and all devices
behind it — must be treated as unreachable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class DeviceTelemetry:
    """Latest known state of one device.

    ``last_report_ns`` is ``None`` until the first load report arrives —
    distinguishing "never reported" from "reported at t=0", which the
    old ``0.0`` default conflated.
    """

    device_id: int
    owner_host: str
    kind: str
    utilization: float = 0.0
    queue_depth: int = 0
    healthy: bool = True
    last_report_ns: Optional[float] = None

    @property
    def ever_reported(self) -> bool:
        return self.last_report_ns is not None

    def observe(self, utilization: float, queue_depth: int,
                now: float) -> None:
        self.utilization = utilization
        self.queue_depth = queue_depth
        self.last_report_ns = now


class TelemetryBoard:
    """The orchestrator's view of the whole pod."""

    def __init__(self):
        self._devices: dict[int, DeviceTelemetry] = {}
        self._agent_heartbeat_ns: dict[str, float] = {}
        #: Hosts we expect heartbeats from, and when we started expecting
        #: them.  A registered agent that has *never* heartbeated turns
        #: stale once the timeout elapses from this point — previously
        #: such agents were invisible to staleness checks forever.
        self._agent_expected_ns: dict[str, float] = {}

    # -- devices ---------------------------------------------------------

    def track(self, device_id: int, owner_host: str, kind: str
              ) -> DeviceTelemetry:
        if device_id in self._devices:
            raise ValueError(f"device {device_id} already tracked")
        telemetry = DeviceTelemetry(device_id, owner_host, kind)
        self._devices[device_id] = telemetry
        return telemetry

    def get(self, device_id: int) -> Optional[DeviceTelemetry]:
        return self._devices.get(device_id)

    def devices(self, kind: Optional[str] = None,
                healthy_only: bool = False) -> list[DeviceTelemetry]:
        out = [
            t for t in self._devices.values()
            if (kind is None or t.kind == kind)
            and (not healthy_only or t.healthy)
        ]
        return sorted(out, key=lambda t: t.device_id)

    def mark_unhealthy(self, device_id: int) -> None:
        telemetry = self._devices.get(device_id)
        if telemetry is not None:
            telemetry.healthy = False

    def mark_healthy(self, device_id: int) -> None:
        telemetry = self._devices.get(device_id)
        if telemetry is not None:
            telemetry.healthy = True

    def mark_host_down(self, host_id: str) -> list[int]:
        """Mark every device owned by ``host_id`` unhealthy; returns ids."""
        affected = []
        for telemetry in self._devices.values():
            if telemetry.owner_host == host_id and telemetry.healthy:
                telemetry.healthy = False
                affected.append(telemetry.device_id)
        return affected

    # -- agent liveness ------------------------------------------------------

    def expect_agent(self, host_id: str, now: float) -> None:
        """Declare that ``host_id`` should be heartbeating from ``now``.

        Idempotent: re-wiring a control channel does not reset the grace
        window.
        """
        self._agent_expected_ns.setdefault(host_id, now)

    def heartbeat(self, host_id: str, now: float) -> None:
        self._agent_heartbeat_ns[host_id] = now

    def stale_agents(self, now: float, timeout_ns: float) -> list[str]:
        stale = {
            host for host, last in self._agent_heartbeat_ns.items()
            if now - last > timeout_ns
        }
        for host, since in self._agent_expected_ns.items():
            # An expected agent that never heartbeated is stale once its
            # grace window expires — not invisible.
            if (host not in self._agent_heartbeat_ns
                    and now - since > timeout_ns):
                stale.add(host)
        return sorted(stale)

    def last_heartbeat(self, host_id: str) -> Optional[float]:
        return self._agent_heartbeat_ns.get(host_id)

    def agent_hosts(self) -> list[str]:
        """Every host we expect liveness traffic from."""
        return sorted(set(self._agent_expected_ns)
                      | set(self._agent_heartbeat_ns))

    def devices_owned_by(self, host_id: str) -> list[DeviceTelemetry]:
        return sorted(
            (t for t in self._devices.values()
             if t.owner_host == host_id),
            key=lambda t: t.device_id,
        )

    def __repr__(self) -> str:
        healthy = sum(1 for t in self._devices.values() if t.healthy)
        return (
            f"<TelemetryBoard devices={len(self._devices)} "
            f"healthy={healthy} agents={len(self._agent_heartbeat_ns)}>"
        )
