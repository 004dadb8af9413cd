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
        real_write = self.client.mem.write

        def flaky_write(addr, data):
            if data == POISON:
                yield self.sim.timeout(100.0)
                raise InjectedFault("buffer write lost")
            yield from real_write(addr, data)

        self.client.mem.write = flaky_write

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


def _failing_single(rig):
    """Process: one op whose payload copy fails."""
    try:
        if rig.kind == "write_burst":
            yield from rig.client.write(0, POISON)
        else:
            yield from rig.client.run_job(KERNEL_COMPRESS, POISON)
    except InjectedFault:
        return "unwound"
    return "no-error"


@pytest.mark.parametrize("kind", ["write_burst", "run_jobs"])
def test_failed_single_op_copy_does_not_stall_a_later_op(kind):
    """A single op reserves its index before it copies its payload, so a
    copy that fails leaves a reserved index no doorbell will expose.  It
    must unwind like a failed burst of one, or the doorbell frontier
    stalls there and an op reserved after it waits for the op-timeout
    failover."""
    rig = Rig(kind)
    client = rig.client
    results = {}

    def failing():
        results["failing"] = yield from _failing_single(rig)

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
    assert results["single_index"] == 1
    assert results["single"] is True
    assert client.failovers == 0 and client.op_timeouts == 0
    assert results["latency"] < 100_000.0
    assert client._pending == {}
    # The device ran the no-op filler, then the op behind it.
    assert rig.completed() == 2
    rig.close()
