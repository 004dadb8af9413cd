"""Four-dimensional resource vectors: cores, memory, SSD, NIC.

These are the four resources Figure 2 reports stranding for.  Vectors are
immutable; arithmetic returns new vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Dimension names, in the order Figure 2 reports them.
DIMENSIONS = ("cores", "memory_gb", "ssd_gb", "nic_gbps")


@dataclass(frozen=True)
class ResourceVector:
    """An amount of each resource (demand or capacity)."""

    cores: float = 0.0
    memory_gb: float = 0.0
    ssd_gb: float = 0.0
    nic_gbps: float = 0.0

    def __post_init__(self):
        for dim in DIMENSIONS:
            value = getattr(self, dim)
            if value < 0:
                if value > -1e-6:
                    # Floating-point residue from add/sub round trips.
                    object.__setattr__(self, dim, 0.0)
                else:
                    raise ValueError(f"negative {dim}: {value}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*(
            getattr(self, d) + getattr(other, d) for d in DIMENSIONS
        ))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*(
            getattr(self, d) - getattr(other, d) for d in DIMENSIONS
        ))

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector(*(
            getattr(self, d) * scalar for d in DIMENSIONS
        ))

    __rmul__ = __mul__

    # -- comparisons --------------------------------------------------------

    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True if this demand fits inside ``capacity`` on every axis."""
        return all(
            getattr(self, d) <= getattr(capacity, d) + 1e-9
            for d in DIMENSIONS
        )

    def utilization_of(self, capacity: "ResourceVector"
                       ) -> dict[str, float]:
        """Per-dimension used/capacity ratios (0 where capacity is 0)."""
        out = {}
        for d in DIMENSIONS:
            cap = getattr(capacity, d)
            out[d] = getattr(self, d) / cap if cap > 0 else 0.0
        return out

    def max_ratio(self, capacity: "ResourceVector") -> float:
        """The binding (largest) used/capacity ratio."""
        return max(self.utilization_of(capacity).values())

    def __repr__(self) -> str:
        return (
            f"RV(cores={self.cores:g}, mem={self.memory_gb:g}GB, "
            f"ssd={self.ssd_gb:g}GB, nic={self.nic_gbps:g}Gbps)"
        )
