"""Availability of MHD-based CXL pods with λ-redundant paths (§5).

"MHD-based pods typically use multiple MHDs and thus inherently offer
high redundancy.  A recent Microsoft white paper formalizes this with
so-called dense topologies that offer λ redundant paths within a CXL
pool.  Many industry proposals offer λ = 4 or even λ = 8."

Model: a pod has M MHDs; each host connects to λ of them.  A host keeps
*pool access* while at least one of its λ links/MHD pairs works; data
placed with k-of-M redundancy (replication or erasure coding at the
allocator level) survives while at most M−k MHDs are down.  The "pod
availability" consumed by the ToR-less analysis is the probability that
a host can reach usable pool memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _require_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class PodTopology:
    """A dense MHD topology: M MHDs, λ host links, k-of-M data placement."""

    n_mhds: int = 8
    lam: int = 4                  # λ redundant paths per host
    data_copies: int = 2          # data survives (data_copies-1) MHD losses
    mhd_availability: float = 0.9995
    link_availability: float = 0.9999

    def __post_init__(self):
        if self.n_mhds < 1:
            raise ValueError("need at least one MHD")
        if not 1 <= self.lam <= self.n_mhds:
            raise ValueError(
                f"lambda must be in [1, n_mhds], got {self.lam}"
            )
        if not 1 <= self.data_copies <= self.n_mhds:
            raise ValueError("data_copies must be in [1, n_mhds]")
        _require_prob("mhd_availability", self.mhd_availability)
        _require_prob("link_availability", self.link_availability)

    # -- per-host path availability -------------------------------------------

    def path_availability(self) -> float:
        """One (link, MHD) path being usable."""
        return self.link_availability * self.mhd_availability

    def host_connectivity(self) -> float:
        """P(host reaches the pool): at least 1 of λ paths alive."""
        dead = 1.0 - self.path_availability()
        return 1.0 - dead ** self.lam

    # -- data availability ----------------------------------------------------------

    def data_availability(self) -> float:
        """P(data reachable): at most data_copies-1 MHDs down.

        Data is placed on ``data_copies`` distinct MHDs; it is lost for
        the duration only if all of its copies' MHDs are down.  Fleet-
        level: the worst-placed item survives while fewer than
        ``data_copies`` of its MHDs fail — approximated by the
        probability that any fixed set of ``data_copies`` MHDs contains
        a live one.
        """
        down = 1.0 - self.mhd_availability
        return 1.0 - down ** self.data_copies

    def pod_availability(self) -> float:
        """P(host has usable pool memory): connectivity AND data."""
        return self.host_connectivity() * self.data_availability()

    # -- cost of redundancy ---------------------------------------------------------

    def capacity_overhead(self) -> float:
        """Extra raw capacity bought for redundancy (copies - 1)."""
        return float(self.data_copies - 1)

    def __repr__(self) -> str:
        return (
            f"<PodTopology M={self.n_mhds} lambda={self.lam} "
            f"copies={self.data_copies} "
            f"avail={self.pod_availability():.6f}>"
        )


def availability_vs_lambda(lams=(1, 2, 4, 8), **kwargs
                           ) -> dict[int, float]:
    """Pod availability as λ grows (the §5 'industry proposals' sweep)."""
    out = {}
    for lam in lams:
        topology = PodTopology(lam=lam, n_mhds=max(lam, 8), **kwargs)
        out[lam] = topology.pod_availability()
    return out


def nines(availability: float) -> float:
    """Availability expressed as a number of nines."""
    if not 0.0 < availability < 1.0:
        raise ValueError("availability must be in (0, 1) for nines()")
    return -math.log10(1.0 - availability)
