"""SWITCH — the hardware baseline, measured honestly.

The paper's argument is cost and flexibility, *not* raw control-path
latency: a hardware PCIe switch forwards MMIO in ~150 ns per hop, while
the software design forwards device-memory operations over a ~600 ns
shared-memory channel plus the owner's MMIO.  This bench quantifies the
trade the paper is making — the software path gives up control-path
nanoseconds that the datapath (which goes through pool DMA either way)
never sees, in exchange for a ~$100k/rack hardware saving.
"""

from benchmarks.conftest import banner, run_once
from repro.analysis.costs import PcieSwitchCost
from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.pcie.nic import Nic, TX_QUEUE
from repro.pcie.switch import PcieSwitchFabric
from repro.sim import Simulator


def _measure_switch_path(n_ops=50):
    """Doorbell-class MMIO writes through a hardware PCIe switch."""
    sim = Simulator(seed=91)
    fabric = PcieSwitchFabric(sim)
    nic = Nic(sim, "nic", device_id=1, mac=0xA)
    fabric.connect_host("h1")
    fabric.connect_device(nic)
    fabric.bind(1, "h1")
    samples = []

    def driver():
        for i in range(n_ops):
            t0 = sim.now
            yield from fabric.mmio_write("h1", 1, Nic.REG_TX_DB, i)
            samples.append(sim.now - t0)

    p = sim.spawn(driver())
    sim.run(until=p)
    sim.run()
    return sum(samples) / len(samples)


def _measure_cxl_path(n_ops=50):
    """The same doorbells forwarded over the CXL ring channel."""
    sim = Simulator(seed=92)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1,
                                mhd_capacity=1 << 26))
    nic = Nic(sim, "nic", device_id=1, mac=0xA)
    nic.attach(pod.host("h0"))
    owner_ep, borrower_ep = RpcEndpoint.pair(pod, "h0", "h1")
    DeviceServer(owner_ep).export(nic)
    handle = RemoteDeviceHandle(borrower_ep, 1)
    applied = []
    original = nic.on_mmio_write

    def spy(offset, value):
        original(offset, value)
        if offset == Nic.REG_TX_DB:
            applied.append(sim.now)

    nic.on_mmio_write = spy
    issued = []

    def driver():
        for i in range(n_ops):
            issued.append(sim.now)
            yield from handle.ring_doorbell(TX_QUEUE, i + 1)
            yield sim.timeout(5_000.0)  # let it land; decorrelate phases

    p = sim.spawn(driver())
    sim.run(until=p)
    owner_ep.close()
    borrower_ep.close()
    sim.run()
    deltas = [a - i for i, a in zip(issued, applied)]
    return sum(deltas) / len(deltas)


def switch_experiment():
    return {
        "switch_ns": _measure_switch_path(),
        "cxl_ns": _measure_cxl_path(),
        "switch_rack_usd": PcieSwitchCost().rack_total(32),
    }


def test_switch_baseline(benchmark):
    result = run_once(benchmark, switch_experiment)
    banner("Hardware PCIe switch vs software CXL forwarding "
           "(doorbell path)")
    print(f"PCIe switch MMIO write : {result['switch_ns']:7.0f} ns "
          f"(plus ${result['switch_rack_usd']:,.0f}/rack of hardware)")
    print(f"CXL channel forwarding : {result['cxl_ns']:7.0f} ns "
          f"(plus ~$0 once the pod exists)")
    print(f"software premium       : "
          f"{result['cxl_ns'] - result['switch_ns']:7.0f} ns per "
          f"doorbell")
    # The honest trade: the hardware path is faster...
    assert result["switch_ns"] < result["cxl_ns"]
    # ...but both are far below device I/O latencies (micro- to
    # milliseconds), and the software path stays sub-2us.
    assert result["cxl_ns"] < 2_000.0