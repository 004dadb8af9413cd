"""Tests for the provisioning-for-peak sqrt(N) model (EST1)."""

import pytest

from repro.cluster.provisioning import (
    paper_sqrt_rule,
    safety_staffing_stranding,
    sample_host_io_demand,
    stranding_vs_pool_size,
)
from repro.cluster.vmtypes import AZURE_LIKE_CATALOG


@pytest.fixture(scope="module")
def demand():
    return sample_host_io_demand(AZURE_LIKE_CATALOG, n_samples=800, seed=0)


def test_demand_distribution_has_io_variance(demand):
    # The calibrated catalog must produce meaningful per-host variance:
    # that variance is what pooling harvests.
    cv_ssd = demand.ssd_gb.std() / demand.ssd_gb.mean()
    cv_nic = demand.nic_gbps.std() / demand.nic_gbps.mean()
    assert cv_ssd > 0.4
    assert cv_nic > 0.15


def test_stranding_decreases_monotonically_with_pool_size(demand):
    for series in (demand.ssd_gb, demand.nic_gbps):
        result = stranding_vs_pool_size(series, pool_sizes=(1, 2, 4, 8, 16))
        values = [result[n] for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:], strict=False))


def test_pooling_8_hosts_substantially_reduces_stranding(demand):
    """The §2.1 claim, shape version: N=8 cuts stranding by a large
    factor (the paper's naive arithmetic says 2.8x; the safety-staffing
    model it cites gives ~1.7-2x; we require >= 1.5x)."""
    result = stranding_vs_pool_size(demand.ssd_gb, pool_sizes=(1, 8))
    assert result[1] / result[8] >= 1.5


def test_monte_carlo_tracks_safety_staffing(demand):
    """Theory check: quantile-provisioned stranding of aggregated iid
    demands follows the square-root safety-staffing law."""
    result = stranding_vs_pool_size(demand.nic_gbps,
                                    pool_sizes=(1, 4, 16))
    s1 = result[1]
    for n in (4, 16):
        predicted = safety_staffing_stranding(s1, n)
        assert result[n] == pytest.approx(predicted, abs=0.06)


def test_paper_rule_values():
    # 54% -> 19% and 29% -> 10% at N=8: the numbers printed in §2.1.
    assert paper_sqrt_rule(0.54, 8) == pytest.approx(0.19, abs=0.01)
    assert paper_sqrt_rule(0.29, 8) == pytest.approx(0.10, abs=0.01)


def test_safety_staffing_limits():
    assert safety_staffing_stranding(0.5, 1) == pytest.approx(0.5)
    # As N grows, stranding tends to zero.
    assert safety_staffing_stranding(0.5, 10_000) < 0.02


def test_sampling_is_deterministic():
    a = sample_host_io_demand(AZURE_LIKE_CATALOG, n_samples=50, seed=3)
    b = sample_host_io_demand(AZURE_LIKE_CATALOG, n_samples=50, seed=3)
    assert (a.ssd_gb == b.ssd_gb).all()
    assert (a.nic_gbps == b.nic_gbps).all()
