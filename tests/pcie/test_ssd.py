"""SSD tests: NVMe-style command flow, media persistence, concurrency."""

from repro.pcie.rings import COMPLETION_BYTES, CompletionEntry, seq_for_pass
from repro.pcie.ssd import NVME_COMMAND_BYTES, NvmeCommand, Ssd

SQ_RING = 0x10_000
CQ_RING = 0x20_000
DATA_BUF = 0x100_000


class SsdDriver:
    """Minimal local NVMe driver for tests."""

    def __init__(self, memsys, ssd):
        self.memsys = memsys
        self.ssd = ssd
        self.tail = 0
        self.cq_head = 0

    def submit(self, cmd: NvmeCommand):
        n = self.ssd.spec.n_sq_entries
        addr = SQ_RING + (self.tail % n) * NVME_COMMAND_BYTES
        yield from self.memsys.write_span(addr, cmd.encode())
        self.tail += 1
        yield from self.ssd.mmio_write(Ssd.REG_SQ_DB, self.tail)

    def wait_completion(self):
        n = self.ssd.spec.n_sq_entries
        sim = self.memsys.sim
        expect = seq_for_pass(self.cq_head // n)
        addr = CQ_RING + (self.cq_head % n) * COMPLETION_BYTES
        while True:
            raw = yield from self.memsys.read_span(
                addr, COMPLETION_BYTES, uncached=True
            )
            entry = CompletionEntry.decode(raw)
            if entry.seq == expect:
                self.cq_head += 1
                return entry
            yield sim.timeout(500.0)


def make_ssd(pod2, host="h0"):
    sim, pod = pod2
    ssd = Ssd(sim, "ssd0", device_id=100)
    ssd.attach(pod.host(host))
    ssd.bar.regs[Ssd.REG_SQ_RING] = SQ_RING
    ssd.bar.regs[Ssd.REG_CQ_RING] = CQ_RING
    ssd.start()
    return sim, pod, ssd, SsdDriver(pod.host(host), ssd)


def test_write_then_read_roundtrip(pod2):
    sim, pod, ssd, drv = make_ssd(pod2)
    payload = b"persistent-data!" * 16  # 256 B
    mem = pod.host("h0")

    def proc():
        yield from mem.write_span(DATA_BUF, payload)
        yield from drv.submit(NvmeCommand(
            NvmeCommand.OP_WRITE, len(payload), lba=4096,
            buffer_addr=DATA_BUF,
        ))
        comp = yield from drv.wait_completion()
        assert comp.status == CompletionEntry.STATUS_OK
        # Read back into a different buffer.
        yield from drv.submit(NvmeCommand(
            NvmeCommand.OP_READ, len(payload), lba=4096,
            buffer_addr=DATA_BUF + 8192,
        ))
        comp = yield from drv.wait_completion()
        assert comp.status == CompletionEntry.STATUS_OK
        data = yield from mem.read_span(
            DATA_BUF + 8192, len(payload), uncached=True
        )
        return data

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == payload
    assert ssd.bytes_written == len(payload)
    assert ssd.bytes_read == len(payload)
    ssd.stop()
    sim.run()


def test_read_latency_dominated_by_media(pod2):
    sim, pod, ssd, drv = make_ssd(pod2)

    def proc():
        t0 = sim.now
        yield from drv.submit(NvmeCommand(
            NvmeCommand.OP_READ, 4096, lba=0, buffer_addr=DATA_BUF,
        ))
        yield from drv.wait_completion()
        return sim.now - t0

    p = sim.spawn(proc())
    sim.run(until=p)
    # Read latency must include the 60 us media read.
    assert p.value >= ssd.spec.read_latency_ns
    assert p.value < ssd.spec.read_latency_ns * 1.2
    ssd.stop()
    sim.run()


def test_out_of_range_lba_errors(pod2):
    sim, pod, ssd, drv = make_ssd(pod2)

    def proc():
        yield from drv.submit(NvmeCommand(
            NvmeCommand.OP_READ, 4096,
            lba=ssd.spec.capacity, buffer_addr=DATA_BUF,
        ))
        comp = yield from drv.wait_completion()
        return comp.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == CompletionEntry.STATUS_ERROR
    ssd.stop()
    sim.run()


def test_flush_command(pod2):
    sim, pod, ssd, drv = make_ssd(pod2)

    def proc():
        t0 = sim.now
        yield from drv.submit(NvmeCommand(
            NvmeCommand.OP_FLUSH, 0, lba=0, buffer_addr=0,
        ))
        comp = yield from drv.wait_completion()
        return comp.status, sim.now - t0

    p = sim.spawn(proc())
    sim.run(until=p)
    status, elapsed = p.value
    assert status == CompletionEntry.STATUS_OK
    assert elapsed >= ssd.spec.flush_latency_ns
    ssd.stop()
    sim.run()


def test_parallel_commands_use_channels(pod2):
    """8 concurrent 4 KiB reads on 8 channels finish ~together, far
    faster than serialized."""
    sim, pod, ssd, drv = make_ssd(pod2)
    n = 8

    def proc():
        for i in range(n):
            yield from drv.submit(NvmeCommand(
                NvmeCommand.OP_READ, 4096, lba=i * 4096,
                buffer_addr=DATA_BUF + i * 4096,
            ))
        t0 = sim.now
        for _ in range(n):
            yield from drv.wait_completion()
        return sim.now

    p = sim.spawn(proc())
    sim.run(until=p)
    serialized = n * ssd.spec.read_latency_ns
    assert p.value < serialized * 0.5
    ssd.stop()
    sim.run()


def test_failed_ssd_ignores_doorbells(pod2):
    sim, pod, ssd, drv = make_ssd(pod2)
    ssd.fail()

    def proc():
        try:
            yield from drv.submit(NvmeCommand(
                NvmeCommand.OP_READ, 4096, lba=0, buffer_addr=DATA_BUF,
            ))
        except Exception as exc:
            return type(exc).__name__

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == "DeviceFailedError"
    assert ssd.commands_completed == 0
    ssd.stop()
    sim.run()


def test_nvme_command_codec():
    cmd = NvmeCommand(NvmeCommand.OP_WRITE, 8192, lba=1 << 30,
                      buffer_addr=1 << 40)
    assert NvmeCommand.decode(cmd.encode()) == cmd
