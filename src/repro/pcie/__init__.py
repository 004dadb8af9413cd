"""PCIe device substrate: NICs, SSDs, accelerators, and the switch baseline.

These models implement the *interface contract* the paper's datapath relies
on (§4.1): devices expose BAR registers reachable by MMIO **only from the
host they are physically attached to**, and they move data with DMA through
that host's memory system — which means a buffer placed in shared CXL pool
memory is reachable by any device in the pod, while MMIO must be forwarded
over ring channels.

The NIC is deliberately the most detailed model (descriptor rings,
doorbells, completion queues, a wire fabric) because the paper uses NICs as
the stress case: "lower latency and higher bandwidth than SSDs, making
them more challenging to pool".
"""

from repro.pcie.accelerator import Accelerator, AcceleratorSpec
from repro.pcie.device import (
    DeviceFailedError,
    MmioDecodeError,
    PcieDevice,
    Registers,
)
from repro.pcie.fabric import EthernetFrame, EthernetSwitch
from repro.pcie.nic import Nic, NicSpec, RX_QUEUE, TX_QUEUE
from repro.pcie.physnic import PhysicalNic
from repro.pcie.rings import CompletionEntry, Descriptor, DescriptorRing
from repro.pcie.ssd import NvmeCommand, Ssd, SsdSpec
from repro.pcie.switch import PcieSwitchFabric

__all__ = [
    "Accelerator",
    "AcceleratorSpec",
    "CompletionEntry",
    "Descriptor",
    "DescriptorRing",
    "DeviceFailedError",
    "EthernetFrame",
    "EthernetSwitch",
    "MmioDecodeError",
    "Nic",
    "NicSpec",
    "NvmeCommand",
    "PcieDevice",
    "PcieSwitchFabric",
    "PhysicalNic",
    "Registers",
    "RX_QUEUE",
    "TX_QUEUE",
    "Ssd",
    "SsdSpec",
]
