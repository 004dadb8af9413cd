"""CXL memory-pool substrate.

Models the hardware the paper builds on (§3): CXL links over the PCIe
physical layer, CXL memory devices, multi-headed devices (MHDs), and CXL
pods — the set of hosts within a rack that share a memory pool.

The model captures the two properties the paper's design depends on:

* **Latency/bandwidth** — idle load-to-use latency of CXL memory is ~2.15×
  local DDR5 [Sharma'24]; a PCIe-5.0 x8 CXL link carries ~30 GB/s at a 2:1
  read:write ratio, and links can be interleaved at 256 B granularity.
* **No cross-host hardware coherence** — today's pool devices do not
  implement CXL 3.0 Back-Invalidate, so CPU caches can serve *stale* data
  for pool lines written by another host.  :mod:`repro.cxl.cache` models
  write-back caches functionally, so stale reads really happen unless the
  software-coherence discipline in :mod:`repro.cxl.coherence` is followed.
"""

from repro.cxl.address import (
    CACHELINE_BYTES,
    INTERLEAVE_BYTES,
    AddressRange,
    line_base,
)
from repro.cxl.allocator import AllocationError, PoolAllocator
from repro.cxl.cache import CpuCache
from repro.cxl.coherence import CoherenceError, SharedRegion
from repro.cxl.device import CxlMemoryDevice, LocalDram
from repro.cxl.link import CxlLink, LinkDownError, LinkSpec
from repro.cxl.memsys import HostMemorySystem
from repro.cxl.mhd import MultiHeadedDevice
from repro.cxl.params import CxlTimings, DEFAULT_TIMINGS
from repro.cxl.pod import CxlPod, HostPort, PodConfig

__all__ = [
    "AddressRange",
    "AllocationError",
    "CACHELINE_BYTES",
    "CoherenceError",
    "CpuCache",
    "CxlLink",
    "CxlMemoryDevice",
    "CxlPod",
    "CxlTimings",
    "DEFAULT_TIMINGS",
    "HostMemorySystem",
    "HostPort",
    "INTERLEAVE_BYTES",
    "LinkDownError",
    "LinkSpec",
    "LocalDram",
    "MultiHeadedDevice",
    "PodConfig",
    "PoolAllocator",
    "SharedRegion",
    "line_base",
]
