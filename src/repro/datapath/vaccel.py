"""Remote accelerator client: soft accelerator disaggregation (§5).

Submits jobs to an accelerator attached to another pod host: job
descriptors and input data go into shared CXL pool memory, the job
doorbell is forwarded over the ring channel, and results are read back
from the accelerator's output region in the pool.

Journaling, hedging and mid-job failover are the pooled queue-pair
protocol of :mod:`repro.datapath.queue_client`, shared with the SSD
client.  The accelerator-specific part is the output address: each
journal entry pins the *output* slot of the generation it ran under,
and it is rebased on resubmission — the successor gets a fresh output
region, so a result produced by the previous owner must be read from
the previous region.
"""

from __future__ import annotations

from repro.cxl.params import HEDGE_DEADLINE_NS
from repro.datapath.queue_client import PooledQueueClient
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.obs.trace import add_phase_ns
from repro.pcie.accelerator import Accelerator
from repro.pcie.rings import (
    COMPLETION_BYTES,
    CompletionEntry,
    Descriptor,
    DESCRIPTOR_BYTES,
)

#: Bytes of output region per job slot: the accelerator writes at most
#: this much of a job's result.
OUT_SLOT_BYTES = 4096


class RemoteAcceleratorClient(PooledQueueClient):
    """Offload jobs to a pooled accelerator.

    Jobs are too coarse-grained to AIMD-pace: the retry budget alone
    bounds this client's recovery-traffic amplification.
    """

    KIND = "vaccel"
    ENTRY_BYTES = DESCRIPTOR_BYTES
    CQ_POLL_NS = 1_000.0
    WAITER_STEM = "job"
    METRIC_FAILOVERS = _names.VACCEL_FAILOVERS
    METRIC_RESUBMITTED = _names.VACCEL_RESUBMITTED
    METRIC_FENCE_KICKS = _names.VACCEL_FENCE_KICKS
    METRIC_HEDGES = _names.VACCEL_HEDGES
    METRIC_OP_TIMEOUTS = _names.VACCEL_OP_TIMEOUTS

    def __init__(self, sim, memsys, handle, pod, owner_host: str,
                 n_entries: int = 64, max_job_bytes: int = 64 << 10,
                 name: str = "vaccel",
                 op_timeout_ns: float = 200_000_000.0,
                 hedge_deadline_ns: float = HEDGE_DEADLINE_NS,
                 budget=None):
        self.max_job_bytes = max_job_bytes
        super().__init__(sim, memsys, handle, pod, owner_host, n_entries,
                         name, op_timeout_ns, hedge_deadline_ns, budget,
                         pacer=None)

    def _alloc_regions(self, suffix: str) -> None:
        self.sq_base = self.mem.alloc(
            self.n_entries * DESCRIPTOR_BYTES, f"jobs{suffix}")
        self.cq_base = self.mem.alloc(
            self.n_entries * COMPLETION_BYTES, f"cq{suffix}")
        self.in_base = self.mem.alloc(
            self.n_entries * self.max_job_bytes, f"inputs{suffix}")
        self.out_base = self.mem.alloc(
            self.n_entries * OUT_SLOT_BYTES, f"outputs{suffix}")

    def _noop_entry(self) -> Descriptor:
        # A one-byte identity job (kernel 0) over the first input slot:
        # no side effect beyond its own output slot.  The accelerator
        # cannot DMA zero bytes, so the job must not be empty.
        return Descriptor(self.in_base, 1, flags=0)

    def _bind_output(self, op) -> None:
        op.out_addr = (self.out_base
                       + (op.index % self.n_entries) * OUT_SLOT_BYTES)

    def setup(self):
        """Process: reset queue state and configure the accelerator's
        rings to our pool memory (driver takeover semantics)."""
        yield from self.handle.write_register(Accelerator.REG_RESET, 1)
        yield from self.handle.write_register(
            Accelerator.REG_JOB_RING, self.sq_base
        )
        yield from self.handle.write_register(
            Accelerator.REG_CQ_RING, self.cq_base
        )
        yield from self.handle.write_register(
            Accelerator.REG_OUT_BASE, self.out_base
        )
        self._configured = True

    def run_job(self, kernel: int, data: bytes):
        """Process: run one job; returns the result bytes.

        Safe for concurrent submitters: each job owns a distinct input
        slot and completions are matched by submission index.
        """
        self._check_size(len(data))
        span = _obs.TRACER.begin(
            "vaccel.job", self.sim.now, track=self._track, cat="io",
            args={"kernel": kernel, "bytes": len(data)},
        )
        try:
            index, paced = yield from self._pace_and_reserve(span)
            in_addr = self._input(index)
            yield from self._stage(span, index, in_addr, data, paced)
            comp, op = yield from self._submit(
                index, Descriptor(in_addr, len(data), flags=kernel),
                span, paced)
            result = yield from self._read_result(span, comp, op)
        finally:
            _obs.TRACER.end(span, self.sim.now)
        return result

    def run_jobs(self, jobs):
        """Process: run several jobs, ringing the doorbell once.

        ``jobs`` is a sequence of ``(kernel, data)`` pairs; returns the
        result bytes per job, in submission order.  Every input buffer
        and job descriptor is written first, then one fence orders the
        batch and one forwarded doorbell exposes all descriptors.  The
        batch must fit the free ring depth, checked before anything is
        reserved.
        """
        if not self._configured:
            raise RuntimeError(f"{self.name}: call setup() first")
        jobs = list(jobs)
        for _kernel, data in jobs:
            self._check_size(len(data))
        if not jobs:
            return []
        span = _obs.TRACER.begin(
            "vaccel.job_burst", self.sim.now, track=self._track, cat="io",
            args={"n": len(jobs)},
        )
        try:
            first, paced = yield from self._pace_and_reserve(span, len(jobs))
            staged = []
            for offset, (kernel, data) in enumerate(jobs):
                in_addr = self._input(first + offset)
                staged.append((in_addr, data,
                               Descriptor(in_addr, len(data), flags=kernel)))
            ops = yield from self._submit_burst(first, staged, span, paced)
            results = []
            for op in ops:
                t_device = self.sim.now
                comp = yield op.waiter
                add_phase_ns(span, "ph_device_ns", self.sim.now - t_device)
                results.append(
                    (yield from self._read_result(span, comp, op)))
            return results
        finally:
            _obs.TRACER.end(span, self.sim.now)

    # -- internals -----------------------------------------------------------

    def _check_size(self, nbytes: int) -> None:
        if nbytes > self.max_job_bytes:
            raise ValueError(
                f"job of {nbytes} B exceeds max {self.max_job_bytes} B"
            )

    def _input(self, index: int) -> int:
        return self.in_base + (index % self.n_entries) * self.max_job_bytes

    def _read_result(self, span, comp, op):
        """Process: read a completed job's result from its output slot."""
        if comp.status != CompletionEntry.STATUS_OK:
            raise IOError(f"{self.name}: job failed (status={comp.status})")
        t_link = self.sim.now
        result = yield from self.mem.read(
            op.out_addr, min(comp.length, OUT_SLOT_BYTES)
        )
        add_phase_ns(span, "ph_link_ns", self.sim.now - t_link)
        return result
