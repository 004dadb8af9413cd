"""Queueing math tests."""

import pytest

from repro.analysis.queueing import (
    erlang_c,
    offered_load_erlangs,
    overprovision_fraction,
    required_servers,
    sqrt_staffing_servers,
)


def test_offered_load():
    assert offered_load_erlangs(10.0, 0.5) == 5.0
    with pytest.raises(ValueError):
        offered_load_erlangs(-1, 1)


def test_erlang_c_known_value():
    # Classic textbook point: a=2 Erlangs, 3 servers -> P(wait) ~ 0.4444.
    assert erlang_c(3, 2.0) == pytest.approx(0.4444, abs=1e-3)


def test_erlang_c_bounds():
    assert erlang_c(10, 0.0) == 0.0
    assert erlang_c(2, 5.0) == 1.0  # unstable
    assert 0.0 <= erlang_c(20, 15.0) <= 1.0


def test_erlang_c_monotone_in_servers():
    values = [erlang_c(n, 8.0) for n in range(9, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_erlang_c_validation():
    with pytest.raises(ValueError):
        erlang_c(0, 1.0)
    with pytest.raises(ValueError):
        erlang_c(1, -1.0)


def test_required_servers_meets_target():
    n = required_servers(20.0, wait_probability_target=0.1)
    assert erlang_c(n, 20.0) <= 0.1
    assert erlang_c(n - 1, 20.0) > 0.1


def test_required_servers_validation():
    with pytest.raises(ValueError):
        required_servers(5.0, wait_probability_target=1.5)


def test_sqrt_staffing():
    assert sqrt_staffing_servers(100.0, beta=2.0) == 120
    assert sqrt_staffing_servers(0.0) == 0


def test_overprovision_fraction_shrinks_with_scale():
    """The core sqrt(N) economics: the overprovision fraction needed for
    a fixed waiting target shrinks as the pool grows."""
    fractions = []
    for load in (4.0, 16.0, 64.0, 256.0):
        n = required_servers(load, wait_probability_target=0.05)
        fractions.append(overprovision_fraction(load, n))
    assert all(a > b for a, b in zip(fractions, fractions[1:]))
    # And roughly like 1/sqrt(load): quadrupling load ~halves the margin.
    assert fractions[0] / fractions[2] == pytest.approx(4.0, rel=0.5)


def test_overprovision_validation():
    with pytest.raises(ValueError):
        overprovision_fraction(1.0, 0)
