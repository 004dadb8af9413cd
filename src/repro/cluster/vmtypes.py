"""Synthetic Azure-like VM catalog.

Shapes mirror public cloud families: general-purpose (D), memory-
optimized (E), compute-optimized (F), VMs with local temp disks (Dd),
storage-optimized (L), and network-heavy sizes.  Weights are calibrated —
see DESIGN.md's substitution table — so that best-fit packing onto the
default host strands roughly what Azure reports in Figure 2: ≈54% of SSD
capacity and ≈29% of NIC bandwidth, with cores the binding resource.

The catalog is data, not code: experiments may pass their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import ResourceVector


@dataclass(frozen=True)
class VmType:
    """One VM size: its demand vector and relative arrival frequency."""

    name: str
    demand: ResourceVector
    weight: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be positive")


class VmCatalog:
    """A weighted set of VM types to sample arrivals from."""

    def __init__(self, types: list[VmType]):
        if not types:
            raise ValueError("catalog needs at least one VM type")
        names = [t.name for t in types]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate VM type names in {names}")
        self.types = list(types)
        total = sum(t.weight for t in types)
        self._probabilities = np.array(
            [t.weight / total for t in types]
        )

    def sample(self, rng: np.random.Generator) -> VmType:
        """Draw one VM type according to the weights."""
        idx = rng.choice(len(self.types), p=self._probabilities)
        return self.types[idx]

    def by_name(self, name: str) -> VmType:
        for t in self.types:
            if t.name == name:
                return t
        raise KeyError(f"no VM type named {name!r}")

    def __len__(self) -> int:
        return len(self.types)


def _vm(name: str, cores: float, mem: float, ssd: float, nic: float,
        weight: float) -> VmType:
    return VmType(name, ResourceVector(cores, mem, ssd, nic), weight)


#: Default catalog, calibrated (see DESIGN.md) so that best-fit packing
#: onto the default 96-core/768GB/15.4TB/100Gbps host reproduces Figure
#: 2's ordering and headline numbers: SSD ≈ 54-57% and NIC ≈ 29%
#: stranded, memory in the teens, cores the binding (least stranded)
#: resource.  Storage-optimized and network-heavy types are rare but
#: large — the per-host demand variance that pooling exploits.
AZURE_LIKE_CATALOG = VmCatalog([
    # General purpose, no local disk.
    _vm("D2s_v5", 2, 8, 0, 1, weight=20),
    _vm("D4s_v5", 4, 16, 0, 2, weight=14),
    _vm("D8s_v5", 8, 32, 0, 4, weight=9),
    _vm("D16s_v5", 16, 64, 0, 8, weight=5),
    # Memory optimized.
    _vm("E8s_v5", 8, 64, 0, 4, weight=10.4),
    _vm("E16s_v5", 16, 128, 0, 8, weight=7.2),
    _vm("E32s_v5", 32, 256, 0, 16, weight=3.2),
    _vm("M8ms", 8, 224, 0, 4, weight=2.4),
    _vm("M16ms", 16, 448, 0, 8, weight=1.2),
    # Compute optimized.
    _vm("F8s_v2", 8, 16, 0, 4, weight=4),
    # With local temp disks (moderate SSD).
    _vm("D8ds_v5", 8, 32, 600, 4, weight=11.2),
    _vm("D16ds_v5", 16, 64, 1200, 8, weight=7),
    # Storage optimized: rare, SSD-hungry.
    _vm("L8s_v3", 8, 64, 1920, 8, weight=6.3),
    _vm("L16s_v3", 16, 128, 3840, 16, weight=4.9),
    _vm("L32s_v3", 32, 256, 7680, 32, weight=3.1),
    _vm("L48s_v3", 48, 384, 11520, 32, weight=1.7),
    # Network heavy (NVAs, load balancers, HPC frontends).
    _vm("N8net", 8, 32, 0, 25, weight=4.5),
    _vm("N16net", 16, 64, 0, 50, weight=2.25),
])
