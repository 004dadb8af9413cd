"""Stranding measurement: the Figure 2 metric.

Stranded fraction of a resource = the share of fleet capacity that sits
unused once the fleet is at admission pressure.  Reported per dimension,
exactly like the paper's Figure 2 bars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.host import HostSpec
from repro.cluster.resources import DIMENSIONS
from repro.cluster.scheduler import Cluster
from repro.cluster.vmtypes import VmCatalog
from repro.cluster.workload import VmStream


@dataclass
class StrandingReport:
    """Per-dimension stranded fractions plus run metadata."""

    stranded: dict[str, float]
    admitted: int
    rejected: int
    n_hosts: int
    group_size: int = 1

    def __getitem__(self, dim: str) -> float:
        return self.stranded[dim]

    def pretty(self) -> str:
        bars = "  ".join(
            f"{d}: {v:6.1%}" for d, v in self.stranded.items()
        )
        pool = (f" pool={self.group_size}" if self.group_size > 1 else "")
        return f"[hosts={self.n_hosts}{pool}] {bars}"


def measure_stranding(cluster) -> StrandingReport:
    """Stranded fractions of a (filled) cluster or pooled cluster."""
    if hasattr(cluster, "utilization"):  # PooledCluster
        util = cluster.utilization()
        group_size = cluster.group_size
    else:
        totals = {d: 0.0 for d in DIMENSIONS}
        for host in cluster.hosts:
            for d, u in host.utilization().items():
                totals[d] += u
        util = {d: totals[d] / len(cluster.hosts) for d in DIMENSIONS}
        group_size = 1
    return StrandingReport(
        stranded={d: 1.0 - util[d] for d in DIMENSIONS},
        admitted=cluster.admitted,
        rejected=cluster.rejected,
        n_hosts=len(cluster.hosts),
        group_size=group_size,
    )


def run_unpooled(catalog: VmCatalog, n_hosts: int = 64, seed: int = 0,
                 spec: HostSpec = HostSpec()) -> StrandingReport:
    """The Figure 2 experiment: fill an unpooled fleet, measure stranding."""
    cluster = Cluster(n_hosts, spec=spec)
    cluster.fill(VmStream(catalog, seed=seed))
    return measure_stranding(cluster)


def run_pooled(catalog: VmCatalog, group_size: int, n_hosts: int = 64,
               seed: int = 0, spec: HostSpec = HostSpec()
               ) -> StrandingReport:
    """The §2.1 experiment: same stream, I/O pooled across N hosts."""
    from repro.cluster.pooled import PooledCluster

    cluster = PooledCluster(n_hosts, group_size, spec=spec)
    cluster.fill(VmStream(catalog, seed=seed))
    return measure_stranding(cluster)
