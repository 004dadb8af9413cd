"""The PCIe-over-CXL datapath (§4.1): the paper's core data plane.

Three ideas compose here:

1. **Buffer placement** (:mod:`repro.datapath.placement`) — descriptor
   rings, completion queues, and I/O buffers can live either in host-local
   DRAM (the conventional baseline) or in shared CXL pool memory.  In the
   pool they are visible to every host *and* to every device in the pod
   via DMA, at the cost of CXL access latency and explicit software
   coherence (non-temporal publishes, uncached polls, store fences before
   doorbells).

2. **MMIO forwarding** (:mod:`repro.datapath.proxy`) — a host can DMA to a
   remote device through the pool, but it cannot touch the device's BARs.
   Doorbells and register accesses are forwarded over sub-µs ring channels
   to a :class:`~repro.datapath.proxy.DeviceServer` on the owning host.

3. **Unmodified device models** — the NIC/SSD/accelerator models never
   learn whether their rings live in DRAM or in the pool, or whether their
   driver is local or remote; they just DMA and honor doorbells.  That is
   the paper's "no device modifications" claim, enforced structurally.

:mod:`repro.datapath.queue_client` is the borrower-side ring protocol
(journal, doorbell frontier, CQ collector, hedging, failover) that the
pooled SSD and accelerator clients share.
:mod:`repro.datapath.netstack` builds a Junction-like userspace UDP stack
on top, and :mod:`repro.datapath.udpbench` runs the paper's Figure 3
microbenchmark over it.
"""

from repro.datapath.netstack import UdpSocket, UdpStack
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.proxy import (
    DeviceServer,
    LocalDeviceHandle,
    RemoteDeviceHandle,
)
from repro.datapath.mirroring import MirroredVolume, MirrorDegradedError
from repro.datapath.striping import StripedVolume
from repro.datapath.transport import Connection, ConnectionState
from repro.datapath.udpbench import UdpBenchConfig, UdpBenchPoint, run_udp_bench
from repro.datapath.vssd import RemoteSsdClient
from repro.datapath.vaccel import RemoteAcceleratorClient

__all__ = [
    "BufferPlacement",
    "Connection",
    "ConnectionState",
    "DeviceServer",
    "MirrorDegradedError",
    "MirroredVolume",
    "StripedVolume",
    "DriverMemory",
    "LocalDeviceHandle",
    "RemoteAcceleratorClient",
    "RemoteDeviceHandle",
    "RemoteSsdClient",
    "UdpBenchConfig",
    "UdpBenchPoint",
    "UdpSocket",
    "UdpStack",
    "run_udp_bench",
]
