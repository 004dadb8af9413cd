"""Hardware PCIe switch baseline: the incumbent the paper argues against.

:class:`PcieSwitchFabric` is a behavioural model: any connected host can
be bound to any connected device, with MMIO/DMA crossing the switch and
paying its forwarding latency.  Routable-PCIe measurements (Hou et al.,
NSDI'24) show roughly 100-150 ns added latency per switch hop; the
functional capability is equivalent to the CXL design, which is exactly
the paper's point — the *costs* differ, not what pooling can do.  The
dollars (≈$80k/rack of switches, adapters and cables versus ≈$600/host
for an MHD-based CXL pod, §1, §3) are
:class:`repro.analysis.costs.PcieSwitchCost` and
:class:`~repro.analysis.costs.CxlPodCost`.
"""

from __future__ import annotations

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
