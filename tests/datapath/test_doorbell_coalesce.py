"""Doorbell coalescing on the forwarded-MMIO path.

Devices treat doorbell writes as max() over the submitted index, so
concurrent doorbells to one queue can merge into a single forwarded
message carrying the freshest index — N submitters cost ~2 channel
messages instead of N.  These tests pin the merge semantics, the
counters the benchmark reads, and the interaction with lease fencing
(a coalesced doorbell dropped by a fence is replayed with a refreshed
token, journal intact).
"""

import zlib

import pytest

from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.pcie.accelerator import KERNEL_COMPRESS, Accelerator
from repro.pcie.nic import TX_QUEUE, Nic
from repro.pcie.ssd import Ssd
from repro.sim import Simulator


@pytest.fixture()
def setup():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    nic = Nic(sim, "nic0", device_id=1, mac=0xa)
    nic.attach(pod.host("h0"))
    owner_ep, remote_ep = RpcEndpoint.pair(pod, "h0", "h1")
    server = DeviceServer(owner_ep)
    server.export(nic)
    handle = RemoteDeviceHandle(remote_ep, device_id=1)
    return sim, pod, nic, server, handle, (owner_ep, remote_ep)


def teardown(sim, endpoints):
    for ep in endpoints:
        ep.close()
    sim.run()


def test_concurrent_doorbells_coalesce_to_max(setup):
    """16 concurrent submitters to one queue merge behind the first
    in-flight doorbell; the device ends at the max index and far fewer
    than 16 messages cross the channel."""
    sim, pod, nic, server, handle, eps = setup
    n = 16

    def worker(i):
        yield from handle.ring_doorbell(TX_QUEUE, i + 1)

    procs = [sim.spawn(worker(i)) for i in range(n)]
    for p in procs:
        sim.run(until=p)
    sim.run(until=sim.timeout(200_000.0))

    assert nic.bar.regs[Nic.REG_TX_DB] == n
    assert handle.doorbells_requested == n
    assert handle.doorbells_coalesced >= n - 4
    # ``forwarded`` counts channel messages: the carrier's own ring
    # plus one flush per drain pass of the pending max — a handful,
    # not one per submitter.
    assert handle.doorbells_forwarded <= 4
    # The merge is what makes the 4:1 benchmark target reachable.
    assert handle.doorbells_requested >= 4 * handle.doorbells_forwarded
    teardown(sim, eps)


def test_sequential_doorbells_do_not_coalesce(setup):
    """Back-to-back rings with the previous one already delivered each
    pay a forwarded message — coalescing only merges concurrency."""
    sim, pod, nic, server, handle, eps = setup

    def proc():
        for i in range(3):
            yield from handle.ring_doorbell(TX_QUEUE, i + 1)
            yield sim.timeout(50_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    sim.run(until=sim.timeout(100_000.0))
    assert handle.doorbells_forwarded == 3
    assert handle.doorbells_coalesced == 0
    assert nic.bar.regs[Nic.REG_TX_DB] == 3
    teardown(sim, eps)


def test_distinct_queues_do_not_merge(setup):
    """Coalescing is per-queue: concurrent doorbells to different
    queues must each reach the device."""
    sim, pod, nic, server, handle, eps = setup

    p0 = sim.spawn(handle.ring_doorbell(0, 7))
    p1 = sim.spawn(handle.ring_doorbell(1, 9))
    sim.run(until=p0)
    sim.run(until=p1)
    sim.run(until=sim.timeout(200_000.0))
    assert handle.doorbells_forwarded == 2
    assert handle.doorbells_coalesced == 0
    teardown(sim, eps)


def test_carrier_failure_keeps_merged_doorbell_pending(setup):
    """Regression: callers that merged behind an in-flight doorbell have
    already returned success, so a carrier whose forward dies must leave
    their pending max for the next carrier to deliver — not silently
    drop it."""
    sim, pod, nic, server, handle, eps = setup
    from repro.channel.rpc import RpcError

    real_forward = handle._forward_doorbell
    state = {"failed": False}

    def flaky_forward(queue_id, index, parent=None):
        if not state["failed"]:
            state["failed"] = True
            # Stay in flight long enough for the second caller to merge,
            # then die like a retired/partitioned channel would.
            yield sim.timeout(5_000.0)
            raise RpcError("carrier lost mid-forward")
        yield from real_forward(queue_id, index, parent)

    handle._forward_doorbell = flaky_forward

    def doomed_carrier():
        try:
            yield from handle.ring_doorbell(TX_QUEUE, 1)
        except RpcError:
            return "failed"

    carrier = sim.spawn(doomed_carrier())
    merged = sim.spawn(handle.ring_doorbell(TX_QUEUE, 5))
    sim.run(until=carrier)
    sim.run(until=merged)
    assert carrier.value == "failed"
    # The merged caller's index survived the carrier's death...
    assert handle._db_pending.get(TX_QUEUE) == 5
    # ...and the next doorbell to the queue delivers it.
    p = sim.spawn(handle.ring_doorbell(TX_QUEUE, 2))
    sim.run(until=p)
    sim.run(until=sim.timeout(200_000.0))
    assert nic.bar.regs[Nic.REG_TX_DB] == 5
    assert handle._db_pending == {}
    teardown(sim, eps)


@pytest.mark.parametrize("kind", ["write_burst", "run_jobs"])
def test_coalesced_doorbell_replays_across_lease_fence(kind):
    """A burst's single doorbell dropped by a token rotation is nacked
    out-of-band and replayed with a refreshed token; every journaled
    entry of the burst still completes.  Both pooled clients share the
    fence kick: the SSD's ``write_burst`` and the accelerator's
    ``run_jobs``."""
    sim = Simulator(seed=11)
    pod = CxlPod(sim, PodConfig(n_hosts=3, n_mhds=2, mhd_capacity=1 << 27))
    if kind == "write_burst":
        device = Ssd(sim, "ssd0", device_id=10)
    else:
        device = Accelerator(sim, "accel0", device_id=10)
    device.attach(pod.host("h0"))
    device.start()
    owner_ep, borrower_ep = RpcEndpoint.pair(pod, "h0", "h2")
    server = DeviceServer(owner_ep)
    server.export(device)
    server.set_lease(10, token=1, expires_at_ns=1e15)
    handle = RemoteDeviceHandle(borrower_ep, device_id=10)
    handle.token = 1
    # Same-owner token rotation: the resolver hands back the refreshed
    # epoch on the same endpoint (what the pool does after a re-grant).
    handle.resolver = lambda: (handle.endpoint,
                               server.lease_snapshot()[10][0])
    payloads = [bytes([i]) * 512 for i in range(8)]
    if kind == "write_burst":
        client = RemoteSsdClient(sim, pod.host("h2"), handle, pod, "h0")
        burst = client.write_burst(
            [(i * 64, data) for i, data in enumerate(payloads)])
    else:
        client = RemoteAcceleratorClient(sim, pod.host("h2"), handle, pod,
                                         "h0")
        burst = client.run_jobs(
            [(KERNEL_COMPRESS, data) for data in payloads])

    def proc():
        yield from client.setup()
        # Rotate the token the moment the burst is posted: its one
        # coalesced doorbell arrives with the stale epoch and is fenced.
        server.set_lease(10, token=2, expires_at_ns=1e15)
        results = yield from burst
        return results

    p = sim.spawn(proc())
    sim.run(until=p)
    if kind == "write_burst":
        assert p.value == [0] * 8
    else:
        assert [zlib.decompress(r) for r in p.value] == payloads
    assert client.ops_completed == 8
    assert client.fence_kicks >= 1          # replayed doorbell
    assert server.fenced_ops >= 1           # the stale one was refused
    assert handle.token == 2                # refreshed epoch stuck
    device.stop()
    for ep in (owner_ep, borrower_ep):
        ep.close()
    sim.run()
