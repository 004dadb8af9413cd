"""Remote (pooled) SSD and accelerator clients: §4's device-compatibility
claim and §5's soft accelerator disaggregation."""

import zlib

import pytest

from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.pcie.accelerator import (
    KERNEL_COMPRESS,
    KERNEL_FHE_MULT,
    Accelerator,
)
from repro.pcie.ssd import Ssd
from repro.sim import Simulator


@pytest.fixture()
def pod3():
    sim = Simulator(seed=2)
    pod = CxlPod(sim, PodConfig(n_hosts=3, n_mhds=2, mhd_capacity=1 << 27))
    return sim, pod


def wire_remote(sim, pod, device, owner, borrower):
    owner_ep, borrower_ep = RpcEndpoint.pair(pod, owner, borrower)
    server = DeviceServer(owner_ep)
    server.export(device)
    handle = RemoteDeviceHandle(borrower_ep, device_id=device.device_id)
    return handle, server, (owner_ep, borrower_ep)


def test_remote_ssd_write_read(pod3):
    sim, pod = pod3
    ssd = Ssd(sim, "ssd0", device_id=10)
    ssd.attach(pod.host("h0"))
    ssd.start()
    handle, _server, eps = wire_remote(sim, pod, ssd, "h0", "h2")
    client = RemoteSsdClient(sim, pod.host("h2"), handle, pod, "h0")
    payload = b"remote-block-data" * 100

    def proc():
        yield from client.setup()
        status = yield from client.write(lba=8192, data=payload)
        assert status == 0
        data = yield from client.read(lba=8192, length=len(payload))
        return data

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == payload
    assert ssd.commands_completed == 2
    ssd.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_remote_ssd_latency_dominated_by_flash(pod3):
    """Flash media latency (tens of us) dwarfs CXL + channel overheads —
    why the paper calls SSDs the easy case."""
    sim, pod = pod3
    ssd = Ssd(sim, "ssd0", device_id=10)
    ssd.attach(pod.host("h0"))
    ssd.start()
    handle, _server, eps = wire_remote(sim, pod, ssd, "h0", "h2")
    client = RemoteSsdClient(sim, pod.host("h2"), handle, pod, "h0")

    def proc():
        yield from client.setup()
        t0 = sim.now
        yield from client.read(lba=0, length=4096)
        return sim.now - t0

    p = sim.spawn(proc())
    sim.run(until=p)
    # Overhead on top of the 60us media read stays below ~15%.
    assert p.value < ssd.spec.read_latency_ns * 1.15
    ssd.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_remote_ssd_oversized_io_rejected(pod3):
    sim, pod = pod3
    ssd = Ssd(sim, "ssd0", device_id=10)
    ssd.attach(pod.host("h0"))
    ssd.start()
    handle, _server, eps = wire_remote(sim, pod, ssd, "h0", "h1")
    client = RemoteSsdClient(sim, pod.host("h1"), handle, pod, "h0",
                             max_io_bytes=4096)
    with pytest.raises(ValueError):
        next(client.write(0, bytes(8192)))
    ssd.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_remote_accelerator_compression(pod3):
    sim, pod = pod3
    accel = Accelerator(sim, "accel0", device_id=20)
    accel.attach(pod.host("h0"))
    accel.start()
    handle, _server, eps = wire_remote(sim, pod, accel, "h0", "h2")
    client = RemoteAcceleratorClient(sim, pod.host("h2"), handle, pod, "h0")
    data = b"compress me please " * 64

    def proc():
        yield from client.setup()
        result = yield from client.run_job(KERNEL_COMPRESS, data)
        return result

    p = sim.spawn(proc())
    sim.run(until=p)
    assert zlib.decompress(p.value) == data
    assert accel.jobs_completed == 1
    accel.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_result_longer_than_its_output_slot_raises(pod3):
    # An FHE result is as long as its input: 8 KiB overflows the 4 KiB
    # output slot, so the job fails and writes nothing rather than
    # returning a 4,096-byte prefix.  A full slot still fits.
    sim, pod = pod3
    accel = Accelerator(sim, "accel0", device_id=20)
    accel.attach(pod.host("h0"))
    accel.start()
    handle, _server, eps = wire_remote(sim, pod, accel, "h0", "h2")
    client = RemoteAcceleratorClient(sim, pod.host("h2"), handle, pod, "h0")

    def proc():
        yield from client.setup()
        with pytest.raises(IOError, match="result 8192 B") as exc:
            yield from client.run_job(KERNEL_FHE_MULT, bytes(8192))
        slot0 = yield from client.mem.read(client.out_base, 4096)
        fits = yield from client.run_job(KERNEL_FHE_MULT, bytes(4096))
        return str(exc.value), slot0, fits

    p = sim.spawn(proc())
    sim.run(until=p)
    error, slot0, fits = p.value
    assert "output slot 4096 B" in error
    assert slot0 == bytes(4096)
    assert fits == bytes([7]) * 4096
    assert accel.jobs_completed == 2
    accel.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_many_hosts_share_one_accelerator(pod3):
    """The 1:N disaggregation pattern: two borrower hosts plus the owner
    all run jobs on a single physical accelerator."""
    sim, pod = pod3
    accel = Accelerator(sim, "accel0", device_id=20)
    accel.attach(pod.host("h0"))
    accel.start()
    h1, s1, eps1 = wire_remote(sim, pod, accel, "h0", "h1")
    h2, s2, eps2 = wire_remote(sim, pod, accel, "h0", "h2")
    results = {}

    # NOTE: each borrower gets its own rings?  No — the accelerator has
    # one job ring.  Sharing it requires the owner to multiplex; here the
    # borrowers run sequentially, modeling time-sliced allocation.
    def borrower(tag, handle, host_id, start_after):
        yield sim.timeout(start_after)
        client = RemoteAcceleratorClient(
            sim, pod.host(host_id), handle, pod, "h0",
            name=f"vaccel-{tag}",
        )
        yield from client.setup()
        out = yield from client.run_job(
            KERNEL_COMPRESS, f"payload-from-{tag}".encode() * 20
        )
        results[tag] = zlib.decompress(out)

    p1 = sim.spawn(borrower("h1", h1, "h1", 0.0))
    sim.run(until=p1)
    p2 = sim.spawn(borrower("h2", h2, "h2", 0.0))
    sim.run(until=p2)
    assert results["h1"] == b"payload-from-h1" * 20
    assert results["h2"] == b"payload-from-h2" * 20
    assert accel.jobs_completed == 2
    accel.stop()
    for ep in eps1 + eps2:
        ep.close()
    sim.run()


def test_write_burst_exceeding_free_depth_rejected_upfront(pod3):
    """Regression: a burst that does not fit the free SQ depth must be
    refused before anything is reserved — a mid-batch reservation
    failure would leave holes the doorbell frontier can never pass —
    and the client must remain fully usable afterwards."""
    sim, pod = pod3
    ssd = Ssd(sim, "ssd0", device_id=10)
    ssd.attach(pod.host("h0"))
    ssd.start()
    handle, _server, eps = wire_remote(sim, pod, ssd, "h0", "h2")
    client = RemoteSsdClient(sim, pod.host("h2"), handle, pod, "h0",
                             n_entries=8)

    def proc():
        yield from client.setup()
        try:
            yield from client.write_burst(
                [(i * 4096, bytes([i]) * 64) for i in range(9)]
            )
        except RuntimeError as exc:
            err = str(exc)
        else:
            return "no-error"
        assert client._tail == 0            # nothing was reserved
        statuses = yield from client.write_burst(
            [(i * 4096, bytes([i]) * 64) for i in range(8)]
        )
        return err, statuses

    p = sim.spawn(proc())
    sim.run(until=p)
    err, statuses = p.value
    assert "exceeds free" in err
    assert statuses == [0] * 8
    assert client.ops_submitted == 8
    ssd.stop()
    for ep in eps:
        ep.close()
    sim.run()


def test_run_jobs_full_ring_rejected_without_reserving(pod3):
    """The accelerator burst path makes the same upfront promise."""
    sim, pod = pod3
    accel = Accelerator(sim, "accel0", device_id=20)
    accel.attach(pod.host("h0"))
    accel.start()
    handle, _server, eps = wire_remote(sim, pod, accel, "h0", "h1")
    client = RemoteAcceleratorClient(sim, pod.host("h1"), handle, pod,
                                     "h0", n_entries=4)

    def proc():
        yield from client.setup()
        try:
            yield from client.run_jobs(
                [(KERNEL_COMPRESS, b"z" * 32)] * 5
            )
        except RuntimeError as exc:
            err = str(exc)
        else:
            return "no-error"
        assert client._tail == 0            # nothing was reserved
        results = yield from client.run_jobs(
            [(KERNEL_COMPRESS, b"z" * 32)] * 4
        )
        return err, results

    p = sim.spawn(proc())
    sim.run(until=p)
    err, results = p.value
    assert "ring full" in err
    assert [zlib.decompress(r) for r in results] == [b"z" * 32] * 4
    accel.stop()
    for ep in eps:
        ep.close()
    sim.run()
