"""Faults at the owner of a pooled SSD or accelerator, under load.

The device engine rides them out the way the NIC does: a DMA that meets
a down link is replayed until the link comes back, and an entry whose
device fails while it runs is dropped, so the borrower resubmits it on
the device the orchestrator fails over to.
"""

import zlib

import pytest

from repro.core import PciePool
from repro.faults import FaultInjector, FaultSchedule, LinkFlap
from repro.pcie.accelerator import KERNEL_COMPRESS
from repro.sim import Simulator

KINDS = ["ssd", "accelerator"]


def make_pool(seed):
    sim = Simulator(seed=seed)
    pool = PciePool(sim, n_hosts=4, n_mhds=2, ctl_poll_ns=200_000.0,
                    dev_poll_ns=50_000.0)
    return sim, pool


def add_device(pool, kind, host):
    if kind == "ssd":
        return pool.add_ssd(host)
    return pool.add_accelerator(host)


def open_client(pool, kind, host):
    if kind == "ssd":
        return pool.open_ssd(host, max_io_bytes=16384)
    return pool.open_accelerator(host)


def one_op(client, kind, index, data):
    """Process: one 4 KiB write or one compress job; returns whether it
    came back intact."""
    if kind == "ssd":
        status = yield from client.write(lba=index * len(data), data=data)
        return status == 0
    result = yield from client.run_job(KERNEL_COMPRESS, data)
    return zlib.decompress(result) == data


@pytest.mark.parametrize("kind,op_bytes,flap_at_ns", [
    ("ssd", 4096, 2_000_000.0),
    ("accelerator", 2048, 1_250_000.0),
])
def test_owner_link_flap_delays_device_dmas(kind, op_bytes, flap_at_ns):
    """A 2 ms flap of every link of the owner host: the device's DMAs
    replay across it, nothing escapes the simulation and every op of
    four concurrent submitters completes."""
    sim, pool = make_pool(seed=5)
    device = add_device(pool, kind, "h0")
    client = open_client(pool, kind, "h2")
    pool.start()
    n_workers, n_ops = 4, 40
    done = []

    def worker(w):
        for i in range(n_ops):
            data = bytes([w + 1, i + 1]) * (op_bytes // 2)
            ok = yield from one_op(client, kind, w * n_ops + i, data)
            done.append(ok)

    def main():
        yield from client.setup()
        workers = [sim.spawn(worker(w)) for w in range(n_workers)]
        for proc in workers:
            yield proc

    FaultInjector(pool).run(FaultSchedule((
        LinkFlap(host_id="h0", at_ns=flap_at_ns, down_ns=2_000_000.0),)))
    sim.run(until=sim.spawn(main()))
    assert done == [True] * (n_workers * n_ops)
    assert device.dma_link_retries > 0
    assert client.failovers == 0
    pool.stop()
    sim.run()


@pytest.mark.parametrize("kind", KINDS)
def test_device_failing_mid_run_drops_the_entry(kind):
    """The owner's device fails 1 µs into running the only entry: the
    engine drops it and the op completes on the successor device after
    one client failover."""
    sim, pool = make_pool(seed=1)
    device = add_device(pool, kind, "h0")
    add_device(pool, kind, "h1")
    pool.start()
    client = open_client(pool, kind, "h2")
    assert pool.owner_of(client.handle.device_id) == "h0"

    def fail_when_unit_taken():
        while device._units.count == 0:
            yield sim.timeout(100.0)
        yield sim.timeout(1_000.0)
        FaultInjector(pool).crash_device(device.device_id)

    def main():
        yield from client.setup()
        sim.spawn(fail_when_unit_taken())
        ok = yield from one_op(client, kind, 0, b"mid-run!" * 512)
        return ok

    assert sim.run(until=sim.spawn(main())) is True
    assert device.dropped == 1
    assert client.failovers == 1
    assert pool.owner_of(client.handle.device_id) == "h1"
    pool.stop()
    sim.run()
