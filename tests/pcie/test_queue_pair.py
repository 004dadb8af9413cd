"""The queue engine the SSD and the accelerator share (QueuePairDevice).

Each test drives both devices through the same contract: entries posted
to a ring in local DRAM, one doorbell, completions polled from the CQ.
An SSD entry is a flush and an accelerator entry an FHE job, so an
entry's run time does not depend on how many units the device has.
"""

import pytest

from repro.cxl.pod import CxlPod, PodConfig
from repro.pcie.accelerator import (
    KERNEL_FHE_MULT,
    Accelerator,
    AcceleratorSpec,
)
from repro.pcie.device import DeviceFailedError
from repro.pcie.rings import (
    COMPLETION_BYTES,
    CompletionEntry,
    Descriptor,
    seq_for_pass,
)
from repro.pcie.ssd import NvmeCommand, Ssd, SsdSpec
from repro.sim import Simulator

RING = 0x10_000
CQ = 0x20_000
CQ_AFTER_RESET = 0x30_000
IN_BUF = 0x40_000
OUT_BASE = 0x80_000


def _ssd(sim, units):
    return Ssd(sim, "ssd0", 100, SsdSpec(n_channels=units))


def _accelerator(sim, units):
    return Accelerator(sim, "accel0", 200, AcceleratorSpec(n_contexts=units))


def _flush(length):
    return NvmeCommand(NvmeCommand.OP_FLUSH, length, lba=0,
                       buffer_addr=0).encode()


def _fhe_job(length):
    return Descriptor(IN_BUF, length, flags=KERNEL_FHE_MULT).encode()


#: kind -> (device with n units, entry completing with a given length,
#: doorbell register, ring register)
DEVICES = {
    "ssd": (_ssd, _flush, Ssd.REG_SQ_DB, Ssd.REG_SQ_RING),
    "accelerator": (_accelerator, _fhe_job, Accelerator.REG_JOB_DB,
                    Accelerator.REG_JOB_RING),
}


class Rig:
    """One started device on h0 and a minimal driver for its queues."""

    def __init__(self, kind, units=2):
        make, self.entry, self.doorbell, ring = DEVICES[kind]
        self.sim = Simulator()
        pod = CxlPod(self.sim, PodConfig(n_hosts=1, n_mhds=1,
                                         mhd_capacity=1 << 26))
        self.mem = pod.host("h0")
        self.dev = make(self.sim, units)
        self.dev.attach(self.mem)
        self.dev.bar.regs[ring] = RING
        self.dev.bar.regs[self.dev.REG_CQ_RING] = CQ
        self.dev.start()
        self.cq = CQ
        self.tail = 0
        self.head = 0

    def submit(self, *lengths):
        """Process: post one entry per length, then ring the doorbell."""
        dev = self.dev
        for length in lengths:
            slot = self.tail % dev.n_entries
            yield from self.mem.write_span(RING + slot * dev.ENTRY_BYTES,
                                           self.entry(length))
            self.tail += 1
        yield from dev.mmio_write(self.doorbell, self.tail)

    def completions(self, n, within_ns=1_000_000.0):
        """Process: the next ``n`` completions, or those that arrive
        within ``within_ns``."""
        out = []
        stop = self.sim.now + within_ns
        while len(out) < n and self.sim.now < stop:
            n_entries = self.dev.n_entries
            raw = yield from self.mem.read_span(
                self.cq + self.head % n_entries * COMPLETION_BYTES,
                COMPLETION_BYTES, uncached=True)
            entry = CompletionEntry.decode(raw)
            if entry.seq == seq_for_pass(self.head // n_entries):
                self.head += 1
                out.append(entry)
            else:
                yield self.sim.timeout(500.0)
        return out

    def run(self, gen):
        proc = self.sim.spawn(gen)
        self.sim.run(until=proc)
        return proc.value

    def finish(self):
        self.dev.stop()
        self.sim.run()


def test_register_offsets():
    assert (Ssd.REG_SQ_DB, Ssd.REG_SQ_RING, Ssd.REG_CQ_RING) == (
        0x10, 0x18, 0x20)
    assert (Accelerator.REG_JOB_DB, Accelerator.REG_JOB_RING,
            Accelerator.REG_CQ_RING, Accelerator.REG_OUT_BASE) == (
        0x10, 0x18, 0x20, 0x28)


@pytest.mark.parametrize("kind", DEVICES)
def test_failed_device_ignores_doorbells(kind):
    rig = Rig(kind)

    def proc():
        yield from rig.submit(64)
        rig.dev.fail()              # before the engine takes the doorbell
        got = yield from rig.completions(1, within_ns=500_000.0)
        try:
            yield from rig.submit(64)
        except DeviceFailedError:
            return got
        raise AssertionError("a failed device took a doorbell")

    assert rig.run(proc()) == []
    assert rig.dev.completed == 0
    assert rig.dev.dma_bytes == 0   # not even the entry was fetched
    rig.finish()


@pytest.mark.parametrize("kind", DEVICES)
def test_reset_restarts_the_ring_at_index_zero(kind):
    rig = Rig(kind)

    def proc():
        yield from rig.submit(64, 64)
        before = yield from rig.completions(2)
        yield from rig.dev.mmio_write(rig.dev.REG_RESET, 1)
        # The driver sets its queues up again, on a fresh CQ.
        yield from rig.dev.mmio_write(rig.dev.REG_CQ_RING, CQ_AFTER_RESET)
        rig.cq = CQ_AFTER_RESET
        rig.tail = rig.head = 0
        yield from rig.submit(128)
        after = yield from rig.completions(1)
        return before, after

    before, after = rig.run(proc())
    assert sorted(entry.index for entry in before) == [0, 1]
    assert [(entry.index, entry.length) for entry in after] == [(0, 128)]
    rig.finish()


@pytest.mark.parametrize("kind", DEVICES)
def test_completion_value_is_the_in_flight_share_of_the_ring(kind):
    rig = Rig(kind)
    n_entries = rig.dev.n_entries

    def proc():
        yield from rig.submit(*[64] * 8)
        return (yield from rig.completions(8))

    values = [entry.value for entry in rig.run(proc())]
    # All 8 entries are in flight at the first completion; each later
    # completion sees as many or fewer, and at least its own.
    assert values[0] == 1000 * 8 // n_entries
    assert values == sorted(values, reverse=True)
    assert values[-1] >= 1000 // n_entries
    rig.finish()


@pytest.mark.parametrize("kind", DEVICES)
def test_utilization_divides_by_the_unit_count(kind):
    def utilization(units):
        rig = Rig(kind, units)
        rig.dev.reset_utilization_window()
        rig.run(rig.submit(64))
        assert len(rig.run(rig.completions(1))) == 1
        busy = rig.dev.utilization()
        rig.finish()
        return busy

    one, four = utilization(1), utilization(4)
    assert 0.0 < one < 1.0
    assert one == pytest.approx(4 * four)


def test_accelerator_writes_output_only_where_reg_out_base_points():
    rig = Rig("accelerator")
    job = 16 + 64 + 16      # descriptor, input and completion DMAs

    rig.run(rig.submit(64))
    assert len(rig.run(rig.completions(1))) == 1
    assert rig.dev.dma_bytes == job          # REG_OUT_BASE unset: no output

    rig.dev.bar.regs[Accelerator.REG_OUT_BASE] = OUT_BASE
    rig.run(rig.submit(64))
    assert len(rig.run(rig.completions(1))) == 1
    assert rig.dev.dma_bytes == 2 * job + 64
    # Job 1's slot holds the FHE transform of its 64 zero bytes.
    out = rig.run(rig.mem.read_span(OUT_BASE + 4096, 64, uncached=True))
    assert out == bytes([7]) * 64
    rig.finish()
