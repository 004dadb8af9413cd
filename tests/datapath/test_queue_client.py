"""The pooled queue-pair protocol the SSD and accelerator clients share.

A burst reserves a contiguous index range before it writes anything, so
a buffer write that fails partway through leaves reserved indices no
doorbell will ever expose.  The burst must unwind them: roll the tail
back when nothing was reserved after it, or fill the abandoned slots
with no-op entries so the doorbell frontier can pass them and a
concurrent submitter's op still reaches the device.
"""

import zlib

import pytest

from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.pcie.accelerator import KERNEL_COMPRESS, Accelerator
from repro.pcie.rings import CompletionEntry
from repro.pcie.ssd import Ssd
from repro.sim import Simulator

BURST = 4
#: Payload of the burst item whose buffer write fails (the third).
POISON = b"\xee" * 64
PAYLOADS = [b"\x01" * 64, b"\x02" * 64, POISON, b"\x04" * 64]
SINGLE = b"single-op" * 8


class InjectedFault(Exception):
    """A buffer write lost partway through a burst."""


class Rig:
    """One pooled device, its remote client, and the ops under test."""

    def __init__(self, kind):
        self.sim = Simulator(seed=5)
        pod = CxlPod(self.sim, PodConfig(n_hosts=2, n_mhds=2,
                                         mhd_capacity=1 << 27))
        if kind == "write_burst":
            self.device = Ssd(self.sim, "ssd0", device_id=10)
        else:
            self.device = Accelerator(self.sim, "accel0", device_id=20)
        self.device.attach(pod.host("h0"))
        self.device.start()
        owner_ep, borrower_ep = RpcEndpoint.pair(pod, "h0", "h1")
        self.endpoints = (owner_ep, borrower_ep)
        server = DeviceServer(owner_ep)
        server.export(self.device)
        handle = RemoteDeviceHandle(borrower_ep,
                                    device_id=self.device.device_id)
        cls = (RemoteSsdClient if kind == "write_burst"
               else RemoteAcceleratorClient)
        self.client = cls(self.sim, pod.host("h1"), handle, pod, "h0")
        self.kind = kind
        #: Set to lose the next write into the submission ring.
        self.lose_next_entry = False
        real_write = self.client.mem.write

        def flaky_write(addr, data):
            if self.lose_next_entry and self._in_sq(addr):
                self.lose_next_entry = False
                data = POISON
            if data == POISON:
                yield self.sim.timeout(100.0)
                raise InjectedFault("buffer write lost")
            yield from real_write(addr, data)

        self.client.mem.write = flaky_write

    def _in_sq(self, addr):
        client = self.client
        return (client.sq_base <= addr
                < client.sq_base + client.n_entries * client.ENTRY_BYTES)

    def burst(self):
        """Process: the burst whose third buffer write fails."""
        if self.kind == "write_burst":
            return self.client.write_burst(
                [(i * 4096, data) for i, data in enumerate(PAYLOADS)])
        return self.client.run_jobs(
            [(KERNEL_COMPRESS, data) for data in PAYLOADS])

    def single(self):
        """Process: one op; returns True when it completed with OK."""
        if self.kind == "write_burst":
            status = yield from self.client.write(64 * 4096, SINGLE)
            return status == CompletionEntry.STATUS_OK
        # run_job raises IOError on any status but OK.
        result = yield from self.client.run_job(KERNEL_COMPRESS, SINGLE)
        return zlib.decompress(result) == SINGLE

    def completed(self):
        if self.kind == "write_burst":
            return self.device.commands_completed
        return self.device.jobs_completed

    def close(self):
        self.device.stop()
        for ep in self.endpoints:
            ep.close()
        self.sim.run()


def _failing_burst(rig):
    try:
        yield from rig.burst()
    except InjectedFault:
        return "unwound"
    return "no-error"


@pytest.mark.parametrize("kind", ["write_burst", "run_jobs"])
def test_failed_burst_rolls_back_when_nothing_reserved_after_it(kind):
    rig = Rig(kind)
    client = rig.client

    def proc():
        yield from client.setup()
        outcome = yield from _failing_burst(rig)
        tail, pending = client._tail, dict(client._pending)
        ok = yield from rig.single()
        return outcome, tail, pending, ok

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    outcome, tail, pending, ok = p.value
    assert outcome == "unwound"
    assert tail == 0                    # back to the burst's first index
    assert pending == {}
    # The rolled-back indices are reused: the next op completes.
    assert ok
    assert client._pending == {}
    assert rig.completed() == 1
    rig.close()


@pytest.mark.parametrize("kind", ["write_burst", "run_jobs"])
def test_failed_burst_neutralizes_slots_a_concurrent_op_waits_behind(kind):
    rig = Rig(kind)
    client = rig.client
    results = {}

    def burst():
        results["burst"] = yield from _failing_burst(rig)

    def single():
        # Runs after the burst reserved its range: this op's index lies
        # past the abandoned slots, so only their neutralization lets
        # the doorbell frontier expose it.
        results["single_index"] = client._tail
        results["single"] = yield from rig.single()

    def proc():
        yield from client.setup()
        b = rig.sim.spawn(burst())
        s = rig.sim.spawn(single())
        yield b
        yield s

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    assert results["burst"] == "unwound"
    assert results["single_index"] == BURST
    assert results["single"] is True
    assert client._tail == BURST + 1    # no rollback under a later op
    assert client._pending == {}
    # The device ran the four no-op fillers and then the concurrent op.
    assert rig.completed() == BURST + 1
    rig.close()


def _failing_single(rig, payload):
    """Process: one op whose payload copy or ring-entry write fails."""
    try:
        if rig.kind == "write_burst":
            yield from rig.client.write(0, payload)
        else:
            yield from rig.client.run_job(KERNEL_COMPRESS, payload)
    except InjectedFault:
        return "unwound"
    return "no-error"


@pytest.mark.parametrize("kind, lost", [
    pytest.param("write_burst", "payload", id="write_burst"),
    pytest.param("run_jobs", "payload", id="run_jobs"),
    pytest.param("write_burst", "entry", id="write_burst-entry"),
    pytest.param("run_jobs", "entry", id="run_jobs-entry"),
])
def test_failed_single_op_copy_does_not_stall_a_later_op(kind, lost):
    """A single op reserves its index before it copies its payload and
    writes its ring entry, so either write failing leaves a reserved
    index no doorbell will expose.  It must unwind like a failed burst
    of one, or the doorbell frontier stalls there and an op reserved
    after it waits for the op-timeout failover."""
    rig = Rig(kind)
    client = rig.client
    results = {}

    def failing():
        if lost == "payload":
            payload = POISON
        else:
            rig.lose_next_entry = True
            payload = PAYLOADS[0]
        results["failing"] = yield from _failing_single(rig, payload)

    def single():
        yield rig.sim.timeout(50.0)      # reserves while the copy runs
        results["single_index"] = client._tail
        start = rig.sim.now
        results["single"] = yield from rig.single()
        results["latency"] = rig.sim.now - start

    def proc():
        yield from client.setup()
        f = rig.sim.spawn(failing())
        s = rig.sim.spawn(single())
        yield f
        yield s

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    assert results["failing"] == "unwound"
    assert not rig.lose_next_entry      # the failing op's entry was lost
    assert results["single_index"] == 1
    assert results["single"] is True
    assert client.failovers == 0 and client.op_timeouts == 0
    assert results["latency"] < 100_000.0
    assert client._pending == {}
    # The device ran the no-op filler, then the op behind it.
    assert rig.completed() == 2
    rig.close()


@pytest.mark.parametrize("kind", ["write_burst", "run_jobs"])
def test_payload_copy_spanning_a_failover_posts_on_the_successor(kind):
    """An op reserves its index before it copies its payload.  A
    failover that starts during the copy rebuilds the rings, so that
    index belongs to the dead generation: the op must be journaled and
    posted under an index of the successor's ring, or the doorbell
    frontier never reaches it and it waits for the op-timeout failover.
    Earlier ops make the stale index differ from the successor's first
    one (with none, index 0 would match it by accident)."""
    from repro.core import PciePool

    sim = Simulator(seed=7)
    pool = PciePool(sim, n_hosts=4)
    if kind == "write_burst":
        pool.add_ssd("h0")
        pool.add_ssd("h1")
    else:
        pool.add_accelerator("h0")
        pool.add_accelerator("h1")
    pool.start()
    if kind == "write_burst":
        client = pool.open_ssd("h2", max_io_bytes=65536)
    else:
        client = pool.open_accelerator("h2", max_job_bytes=65536)
    big = bytes(range(256)) * 256               # 64 KiB
    results = {}

    def submit(payloads):
        if kind == "write_burst":
            return client.write_burst(
                [(i * 65536, data) for i, data in enumerate(payloads)])
        return client.run_jobs([(KERNEL_COMPRESS, data) for data in payloads])

    def proc():
        yield from client.setup()
        for i in range(5):
            yield from submit([bytes([i]) * 512])
        # A slow copy: h2's links at 1% bandwidth stretch the 64 KiB
        # payload copy far past the failover's few microseconds.
        for link in pool.pod.host("h2").port.links:
            link.degrade(0.01)
        start = sim.now

        def failover():
            yield sim.timeout(2_000.0)
            yield from client.failover()

        sim.spawn(failover())
        (result,) = yield from submit([big])
        results["latency"] = sim.now - start
        results["result"] = result

    p = sim.spawn(proc())
    sim.run(until=p)
    if kind == "write_burst":
        assert results["result"] == CompletionEntry.STATUS_OK
    else:
        assert zlib.decompress(results["result"]) == big
    assert client.failovers == 1 and client.op_timeouts == 0
    assert results["latency"] < 1_000_000.0
    assert client._pending == {}
    pool.stop()
