"""Figure 4 harness: ping-pong latency over CXL shared-memory rings.

Reproduces the paper's measurement: two hosts, each attached to the pool
with a PCIe-5.0 x16 link, exchange 64 B messages through a pair of ring
channels.  We record the **one-way** latency of each message (send-side
timestamp to receive completion), which is what the paper's Figure 4
reports ("message passing latency").

Expected shape: sub-microsecond, with a median around 600 ns — slightly
above the theoretical floor of one CXL write plus one CXL read, the gap
coming from polling alignment and CPU overheads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.channel.ring import RingChannel
from repro.cxl.link import LinkSpec
from repro.cxl.pod import CxlPod, PodConfig
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.obs.context import unwrap_trace, wrap_trace
from repro.sim import Simulator

_STAMP = struct.Struct("<d")


@dataclass
class PingPongResult:
    """One-way latency samples (ns) and their summary statistics."""

    samples_ns: np.ndarray
    poll_overhead_ns: float
    #: Kernel events processed by the run's simulator (cheap counter,
    #: populated with or without a profiler attached) and the simulated
    #: span covered — the simcore bench reads throughput from these.
    events_processed: int = 0
    sim_ns: float = 0.0

    @property
    def median_ns(self) -> float:
        return float(np.median(self.samples_ns))

    @property
    def mean_ns(self) -> float:
        return float(np.mean(self.samples_ns))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.samples_ns, q))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(latency_ns, cumulative_fraction) pairs for plotting."""
        xs = np.sort(self.samples_ns)
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys

    def summary(self) -> dict[str, float]:
        return {
            "p50_ns": self.percentile(50),
            "p90_ns": self.percentile(90),
            "p99_ns": self.percentile(99),
            "mean_ns": self.mean_ns,
            "min_ns": float(self.samples_ns.min()),
            "max_ns": float(self.samples_ns.max()),
        }


def run_pingpong(n_messages: int = 2000, seed: int = 0,
                 poll_overhead_ns: float = 30.0,
                 jitter: bool = True) -> PingPongResult:
    """Run the Figure 4 ping-pong and return one-way latency samples.

    Args:
        n_messages: number of ping/pong round trips to sample.
        seed: simulation seed (controls jitter and initial phase).
        poll_overhead_ns: CPU work between receiver polls.
        jitter: add occasional scheduling noise on the receiver (models
            the interference that gives real CDFs their tail).
    """
    sim = Simulator(seed=seed)
    # The paper's setup: sender and receiver each on a x16 link.
    pod = CxlPod(sim, PodConfig(
        n_hosts=2, n_mhds=1, mhd_capacity=1 << 26,
        link_spec=LinkSpec(lanes=16),
    ))
    ping = RingChannel.over_pod(pod, "h0", "h1", n_slots=16, label="ping")
    pong = RingChannel.over_pod(pod, "h1", "h0", n_slots=16, label="pong")
    one_way: list[float] = []
    rng = sim.rng.stream("pingpong-jitter")
    tracer = _obs.TRACER
    hist = _obs.METRICS.histogram(_names.RING_ONE_WAY_NS)

    def client(sim):
        for i in range(n_messages):
            stamp = _STAMP.pack(sim.now)
            if tracer.enabled:
                # One trace per round: the stamp rides with a trace
                # envelope so the server's handler span joins this trace
                # across hosts.  The 64 B NT store covers either payload
                # size, so tracing perturbs nothing.
                span = tracer.begin("pingpong.round", sim.now,
                                    track="h0/app", cat="app",
                                    args={"round": i})
                ctx = span.context()
                yield from ping.sender.send(wrap_trace(stamp, ctx),
                                            ctx=ctx)
                yield from pong.receiver.recv(poll_overhead_ns)
                tracer.end(span, sim.now)
            else:
                yield from ping.sender.send(stamp)
                yield from pong.receiver.recv(poll_overhead_ns)
            # Random think time decorrelates the poll phase between
            # iterations so the alignment term is properly sampled.
            yield sim.timeout(float(rng.uniform(50.0, 500.0)))

    def server(sim):
        for _ in range(n_messages):
            payload = yield from ping.receiver.recv(poll_overhead_ns)
            payload, ctx = unwrap_trace(payload)
            (sent_at,) = _STAMP.unpack(payload[:_STAMP.size])
            latency = sim.now - sent_at
            one_way.append(latency)
            hist.observe(latency)
            span = None
            if tracer.enabled:
                span = tracer.begin("pingpong.handle", sim.now,
                                    track="h1/app", parent=ctx,
                                    cat="app",
                                    args={"one_way_ns": latency})
            if jitter and rng.random() < 0.02:
                # Rare interference event (IRQ, cgroup throttle, ...).
                yield sim.timeout(float(rng.exponential(400.0)))
            if span is not None:
                yield from pong.sender.send(b"ack", ctx=span.context())
                tracer.end(span, sim.now)
            else:
                yield from pong.sender.send(b"ack")

    c = sim.spawn(client(sim), name="pingpong-client")
    sim.spawn(server(sim), name="pingpong-server")
    sim.run(until=c)
    sim.run()
    return PingPongResult(
        samples_ns=np.asarray(one_way), poll_overhead_ns=poll_overhead_ns,
        events_processed=sim.events_processed, sim_ns=sim.now,
    )
