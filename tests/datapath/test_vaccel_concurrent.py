"""Concurrent accelerator offload: many in-flight jobs, one client."""

import zlib

from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import LocalDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.pcie.accelerator import (
    KERNEL_COMPRESS,
    KERNEL_FHE_MULT,
    Accelerator,
    AcceleratorSpec,
)
from repro.sim import AllOf, Simulator


def make_client(n_contexts=4):
    sim = Simulator(seed=6)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=2,
                                mhd_capacity=1 << 28))
    accel = Accelerator(sim, "accel", device_id=1,
                        spec=AcceleratorSpec(n_contexts=n_contexts))
    accel.attach(pod.host("h0"))
    accel.start()
    client = RemoteAcceleratorClient(
        sim, pod.host("h0"), LocalDeviceHandle(accel), pod, "h0",
    )
    return sim, accel, client


def test_concurrent_jobs_all_complete_correctly():
    sim, accel, client = make_client()
    inputs = [f"payload-{i}-".encode() * 30 for i in range(12)]

    def main():
        yield from client.setup()
        jobs = [
            sim.spawn(client.run_job(KERNEL_COMPRESS, data))
            for data in inputs
        ]
        results = yield AllOf(sim, jobs)
        return [results[j] for j in jobs]

    p = sim.spawn(main())
    sim.run(until=p)
    sim.run()
    for data, compressed in zip(inputs, p.value, strict=True):
        assert zlib.decompress(compressed) == data
    assert accel.jobs_completed == 12
    accel.stop()
    sim.run()


def test_concurrency_speeds_up_bursts():
    """4 execution contexts: a burst of 8 jobs beats 8 serial jobs."""
    def burst_time(concurrent):
        sim, accel, client = make_client(n_contexts=4)

        def main():
            yield from client.setup()
            t0 = sim.now
            if concurrent:
                jobs = [
                    sim.spawn(client.run_job(KERNEL_FHE_MULT,
                                             bytes(4 << 10)))
                    for _ in range(8)
                ]
                yield AllOf(sim, jobs)
            else:
                for _ in range(8):
                    yield from client.run_job(KERNEL_FHE_MULT,
                                              bytes(4 << 10))
            return sim.now - t0

        p = sim.spawn(main())
        sim.run(until=p)
        sim.run()
        accel.stop()
        sim.run()
        return p.value

    serial = burst_time(concurrent=False)
    parallel = burst_time(concurrent=True)
    assert parallel < 0.5 * serial


def test_ring_full_rejected():
    sim, accel, client = make_client()
    client._tail = client._cq_head + client.n_entries  # simulate full

    def main():
        yield from client.setup()
        try:
            yield from client.run_job(KERNEL_FHE_MULT, b"x")
        except RuntimeError as exc:
            return str(exc)

    p = sim.spawn(main())
    sim.run(until=p)
    sim.run()
    assert "ring full" in p.value
    accel.stop()
    sim.run()
