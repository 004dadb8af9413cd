"""PCIe switch baseline tests: binding semantics (its dollars are in
tests/analysis/test_costs.py)."""

import pytest

from repro.pcie.device import PcieDevice
from repro.pcie.switch import PcieSwitchFabric
from repro.sim import Simulator


def make_fabric():
    sim = Simulator()
    fabric = PcieSwitchFabric(sim, n_host_ports=2, n_device_ports=2)
    dev = PcieDevice(sim, "dev0", device_id=1)
    dev.bar.regs[0x100] = 7
    fabric.connect_host("h0")
    fabric.connect_host("h1")
    fabric.connect_device(dev)
    return sim, fabric, dev


def test_bound_host_can_mmio_through_switch():
    sim, fabric, dev = make_fabric()
    fabric.bind(1, "h0")

    def proc():
        value = yield from fabric.mmio_read("h0", 1, 0x100)
        return value, sim.now

    p = sim.spawn(proc())
    sim.run(until=p)
    value, t = p.value
    assert value == 7
    # Switch adds hop latency on top of the device MMIO read.
    assert t > 900.0


def test_unbound_host_rejected():
    sim, fabric, dev = make_fabric()
    fabric.bind(1, "h0")
    with pytest.raises(PermissionError):
        next(fabric.mmio_read("h1", 1, 0x100))


def test_rebinding_moves_device():
    sim, fabric, dev = make_fabric()
    fabric.bind(1, "h0")
    fabric.bind(1, "h1")
    assert fabric.binding_of(1) == "h1"
    with pytest.raises(PermissionError):
        next(fabric.mmio_read("h0", 1, 0x100))


def test_unbind():
    _sim, fabric, _dev = make_fabric()
    fabric.bind(1, "h0")
    fabric.unbind(1)
    assert fabric.binding_of(1) is None


def test_port_exhaustion():
    sim = Simulator()
    fabric = PcieSwitchFabric(sim, n_host_ports=1, n_device_ports=1)
    fabric.connect_host("h0")
    with pytest.raises(RuntimeError):
        fabric.connect_host("h1")
    fabric.connect_device(PcieDevice(sim, "d0", device_id=1))
    with pytest.raises(RuntimeError):
        fabric.connect_device(PcieDevice(sim, "d1", device_id=2))


def test_bind_unknown_entities_rejected():
    _sim, fabric, _dev = make_fabric()
    with pytest.raises(KeyError):
        fabric.bind(99, "h0")
    with pytest.raises(KeyError):
        fabric.bind(1, "h99")
