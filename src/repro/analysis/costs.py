"""Total-cost-of-ownership models (§1, §2.2, §3).

Three comparisons the paper makes:

1. **Pooling fabric cost** — a PCIe-switch deployment "easily reaches
   $80,000" per rack (switches + software + adapters + cabling, doubled
   for redundancy), versus ≈$600/host for an MHD-based CXL pod — which is
   moreover *already paid for* by the memory-pooling business case, so
   PCIe pooling rides along at zero marginal hardware cost.
2. **Redundancy savings** (§2.2) — without pooling, surviving one NIC
   failure requires a spare NIC per host; a pool needs only enough spares
   to cover the expected number of concurrent failures across the pod.
3. **Device-count savings** from the √N stranding reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import stats


@dataclass(frozen=True)
class PcieSwitchCost:
    """Rack-level PCIe-switch pooling BOM (vendor-list-price class)."""

    switch_unit_usd: float = 25_000.0
    switch_software_usd: float = 15_000.0
    host_adapter_usd: float = 850.0
    cable_usd: float = 120.0
    redundant_switches: int = 2

    def rack_total(self, n_hosts: int = 32) -> float:
        switches = self.redundant_switches * (
            self.switch_unit_usd + self.switch_software_usd
        )
        return switches + n_hosts * (self.host_adapter_usd + self.cable_usd)

    def per_host(self, n_hosts: int = 32) -> float:
        return self.rack_total(n_hosts) / n_hosts


@dataclass(frozen=True)
class CxlPodCost:
    """MHD-based CXL pod cost (≈$600/host, Octopus-class construction)."""

    per_host_usd: float = 600.0
    already_deployed_for_memory_pooling: bool = True

    def rack_total(self, n_hosts: int = 32) -> float:
        if self.already_deployed_for_memory_pooling:
            return 0.0
        return n_hosts * self.per_host_usd

    def per_host(self, n_hosts: int = 32) -> float:
        return self.rack_total(n_hosts) / n_hosts if n_hosts else 0.0


def pooling_cost_comparison(n_hosts: int = 32) -> dict[str, float]:
    """The §1/§3 cost table: switch vs pod (greenfield and marginal)."""
    switch = PcieSwitchCost()
    pod_marginal = CxlPodCost(already_deployed_for_memory_pooling=True)
    pod_greenfield = CxlPodCost(already_deployed_for_memory_pooling=False)
    return {
        "pcie_switch_rack_usd": switch.rack_total(n_hosts),
        "pcie_switch_per_host_usd": switch.per_host(n_hosts),
        "cxl_pod_marginal_rack_usd": pod_marginal.rack_total(n_hosts),
        "cxl_pod_greenfield_rack_usd": pod_greenfield.rack_total(n_hosts),
        "cxl_pod_greenfield_per_host_usd": pod_greenfield.per_host(n_hosts),
        "greenfield_savings_factor": (
            switch.rack_total(n_hosts)
            / max(1.0, pod_greenfield.rack_total(n_hosts))
        ),
    }


def spares_needed_pooled(n_hosts: int, device_failure_prob: float,
                         availability_target: float = 0.9999) -> int:
    """Spare devices a pool needs so P(failures <= spares) >= target.

    Device failures are independent Bernoulli per maintenance window;
    the pooled rack survives as long as concurrent failures do not
    exceed the spare count (any host can fail over to any spare, §2.2).
    """
    if not 0.0 <= device_failure_prob <= 1.0:
        raise ValueError("failure probability must be in [0, 1]")
    if not 0.0 < availability_target < 1.0:
        raise ValueError("availability target must be in (0, 1)")
    dist = stats.binom(n_hosts, device_failure_prob)
    for spares in range(n_hosts + 1):
        if dist.cdf(spares) >= availability_target:
            return spares
    return n_hosts


def redundancy_savings(n_hosts: int = 32,
                       device_failure_prob: float = 0.01,
                       device_cost_usd: float = 1_500.0,
                       availability_target: float = 0.9999
                       ) -> dict[str, float]:
    """Spare-device cost: one-per-host versus pooled spares (§2.2)."""
    pooled_spares = spares_needed_pooled(
        n_hosts, device_failure_prob, availability_target
    )
    unpooled_spares = n_hosts  # one redundant device per host
    return {
        "unpooled_spares": float(unpooled_spares),
        "pooled_spares": float(pooled_spares),
        "unpooled_cost_usd": unpooled_spares * device_cost_usd,
        "pooled_cost_usd": pooled_spares * device_cost_usd,
        "devices_saved": float(unpooled_spares - pooled_spares),
        "savings_factor": unpooled_spares / max(1.0, float(pooled_spares)),
    }


def stranding_capacity_savings(stranded_unpooled: float,
                               stranded_pooled: float,
                               fleet_device_cost_usd: float
                               ) -> dict[str, float]:
    """Device spend avoided by the stranding reduction.

    If a fraction s of capacity is stranded, serving a fixed demand D
    requires D / (1 - s) of capacity; the ratio of requirements before
    and after pooling is the hardware saving.
    """
    for s in (stranded_unpooled, stranded_pooled):
        if not 0.0 <= s < 1.0:
            raise ValueError(f"stranded fraction {s} out of range [0, 1)")
    need_unpooled = 1.0 / (1.0 - stranded_unpooled)
    need_pooled = 1.0 / (1.0 - stranded_pooled)
    saving_fraction = 1.0 - need_pooled / need_unpooled
    return {
        "capacity_needed_unpooled": need_unpooled,
        "capacity_needed_pooled": need_pooled,
        "capacity_saving_fraction": saving_fraction,
        "fleet_savings_usd": saving_fraction * fleet_device_cost_usd,
    }
