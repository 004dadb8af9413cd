"""Hardware PCIe switch baseline: the incumbent the paper argues against.

Two pieces:

* :class:`PcieSwitchFabric` — a behavioural model: any connected host can
  be bound to any connected device, with MMIO/DMA crossing the switch and
  paying its forwarding latency.  Routable-PCIe measurements (Hou et al.,
  NSDI'24) show roughly 100-150 ns added latency per switch hop; the
  functional capability is equivalent to the CXL design, which is exactly
  the paper's point — the *costs* differ, not what pooling can do.
* :class:`PcieSwitchCostModel` — the dollars: switches, host adapters,
  cabling, and redundant units, totalling ≈$80k/rack versus ≈$600/host
  for an MHD-based CXL pod (§1, §3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pcie.device import PcieDevice
from repro.sim import Simulator

#: Added latency of one PCIe-switch hop (ns), per routable-PCIe studies.
SWITCH_HOP_NS = 150.0


class PcieSwitchFabric:
    """A rack-level PCIe switch binding hosts to devices dynamically."""

    def __init__(self, sim: Simulator, n_host_ports: int = 32,
                 n_device_ports: int = 32, hop_latency_ns: float = SWITCH_HOP_NS):
        self.sim = sim
        self.n_host_ports = n_host_ports
        self.n_device_ports = n_device_ports
        self.hop_latency_ns = hop_latency_ns
        self._host_ports: dict[str, None] = {}
        self._devices: dict[int, PcieDevice] = {}
        self._bindings: dict[int, str] = {}  # device_id -> host_id

    def connect_host(self, host_id: str) -> None:
        if len(self._host_ports) >= self.n_host_ports:
            raise RuntimeError("switch host ports exhausted")
        self._host_ports[host_id] = None

    def connect_device(self, device: PcieDevice) -> None:
        if len(self._devices) >= self.n_device_ports:
            raise RuntimeError("switch device ports exhausted")
        self._devices[device.device_id] = device

    def bind(self, device_id: int, host_id: str) -> None:
        """Assign a device to a host (the switch's pooling primitive)."""
        if host_id not in self._host_ports:
            raise KeyError(f"host {host_id!r} not connected to switch")
        if device_id not in self._devices:
            raise KeyError(f"device {device_id} not connected to switch")
        self._bindings[device_id] = host_id

    def unbind(self, device_id: int) -> None:
        self._bindings.pop(device_id, None)

    def binding_of(self, device_id: int) -> str | None:
        return self._bindings.get(device_id)

    def mmio_write(self, host_id: str, device_id: int,
                   offset: int, value: int):
        """Process: MMIO through the switch (one extra hop of latency)."""
        self._check_bound(host_id, device_id)
        yield self.sim.timeout(self.hop_latency_ns)
        result = yield from self._devices[device_id].mmio_write(offset, value)
        return result

    def mmio_read(self, host_id: str, device_id: int, offset: int):
        """Process: MMIO read through the switch (two hop crossings)."""
        self._check_bound(host_id, device_id)
        yield self.sim.timeout(2 * self.hop_latency_ns)
        value = yield from self._devices[device_id].mmio_read(offset)
        return value

    def _check_bound(self, host_id: str, device_id: int) -> None:
        bound = self._bindings.get(device_id)
        if bound != host_id:
            raise PermissionError(
                f"device {device_id} is bound to {bound!r}, "
                f"not {host_id!r}"
            )


@dataclass(frozen=True)
class PcieSwitchCostModel:
    """Rack-level BOM for PCIe-switch pooling (from vendor pricing, §1)."""

    switch_unit_usd: float = 25_000.0
    switch_software_usd: float = 15_000.0
    host_adapter_usd: float = 850.0
    cable_usd: float = 120.0
    redundant_switches: int = 2

    def rack_cost(self, n_hosts: int = 32) -> float:
        """Total cost to pool PCIe devices across ``n_hosts``."""
        switches = self.redundant_switches * (
            self.switch_unit_usd + self.switch_software_usd
        )
        per_host = n_hosts * (self.host_adapter_usd + self.cable_usd)
        return switches + per_host

    def per_host_cost(self, n_hosts: int = 32) -> float:
        return self.rack_cost(n_hosts) / n_hosts


@dataclass(frozen=True)
class CxlPodCostModel:
    """Incremental cost of PCIe pooling on a CXL pod.

    The pod itself (~$600/host, Octopus-style switchless construction) is
    paid for by the *memory pooling* business case; PCIe pooling reuses
    that hardware, so its marginal hardware cost is zero — the paper's
    "no extra cost" claim.  We still expose the pod cost for the
    comparison where a pod is deployed solely for PCIe pooling.
    """

    pod_cost_per_host_usd: float = 600.0
    #: True when the pod already exists for memory pooling.
    pod_already_deployed: bool = True

    def rack_cost(self, n_hosts: int = 32) -> float:
        if self.pod_already_deployed:
            return 0.0
        return n_hosts * self.pod_cost_per_host_usd

    def per_host_cost(self, n_hosts: int = 32) -> float:
        if n_hosts == 0:
            return 0.0
        return self.rack_cost(n_hosts) / n_hosts
