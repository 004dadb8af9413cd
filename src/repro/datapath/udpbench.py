"""Figure 3 harness: UDP latency-throughput, CXL vs local buffers.

Replicates the paper's microbenchmark topology in simulation:

* a *server* host whose NIC is locally attached; its network stack
  allocates TX/RX buffers and rings either from local DDR5 (baseline,
  solid lines in Figure 3) or from the CXL memory pool (dotted lines);
* a *client* host with its own locally-attached NIC and local buffers,
  generating an open-loop Poisson request stream of fixed-size UDP
  datagrams that the server echoes back.

For each offered load the harness reports achieved throughput and RTT
percentiles — the coordinates of one point on the latency-throughput
curve.  The paper's claim to reproduce: the CXL curves track the local
curves within a few percent, and saturation throughput is unchanged
because two PCIe-5.0 x8 CXL links out-carry a 100 Gbps NIC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.cxl.link import LinkSpec
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.netstack import UDP_HEADER_BYTES, UdpStack
from repro.datapath.placement import BufferPlacement, DriverMemory
from repro.datapath.proxy import LocalDeviceHandle
from repro.pcie.fabric import ETH_HEADER_BYTES, EthernetSwitch
from repro.pcie.nic import Nic, NicSpec
from repro.sim import Simulator

#: request id (u32), pad (u32), send timestamp (f64)
_REQ = struct.Struct("<IId")

SERVER_MAC = 0xA0
CLIENT_MAC = 0xB0
SERVER_PORT = 53
CLIENT_PORT = 9000


@dataclass(frozen=True)
class UdpBenchConfig:
    """One latency-throughput sweep configuration."""

    payload_bytes: int = 1024
    placement: BufferPlacement = BufferPlacement.LOCAL
    n_requests: int = 400
    seed: int = 0
    n_desc: int = 128


@dataclass
class UdpBenchPoint:
    """One point of the latency-throughput curve."""

    offered_gbps: float
    achieved_gbps: float
    rtt_p50_ns: float
    rtt_p99_ns: float
    rtt_mean_ns: float
    completed: int
    offered_requests: int

    @property
    def saturated(self) -> bool:
        return self.achieved_gbps < 0.9 * self.offered_gbps


def _build_endpoint(sim, pod, host_id, mac, switch, placement, n_desc):
    nic = Nic(sim, f"nic-{host_id}", device_id=mac, mac=mac,
              spec=NicSpec(n_desc=n_desc))
    nic.attach(pod.host(host_id))
    nic.plug_into(switch)
    nic.start()
    mem = DriverMemory(
        pod.host(host_id), pod, placement,
        owners=[host_id], label=f"stack:{host_id}",
    )
    stack = UdpStack(
        sim, pod.host(host_id), LocalDeviceHandle(nic), mem,
        mac=mac, n_desc=n_desc, name=f"stack:{host_id}",
        tx_hint=nic.tx_cq_hint, rx_hint=nic.rx_cq_hint,
    )
    return nic, stack


def run_udp_point(config: UdpBenchConfig,
                  offered_gbps: float) -> UdpBenchPoint:
    """Run one offered-load point and return its curve coordinates."""
    sim = Simulator(seed=config.seed)
    # The paper's server: both CPU sockets on PCIe-5.0 x8 links to the
    # pod; we model the host with two x8 links (one per MHD).
    pod = CxlPod(sim, PodConfig(
        n_hosts=2, n_mhds=2, mhd_capacity=1 << 28,
        link_spec=LinkSpec(lanes=8),
        local_dram_bytes=64 << 20,
    ))
    switch = EthernetSwitch(sim)
    server_nic, server = _build_endpoint(
        sim, pod, "h0", SERVER_MAC, switch, config.placement, config.n_desc
    )
    client_nic, client = _build_endpoint(
        sim, pod, "h1", CLIENT_MAC, switch, BufferPlacement.LOCAL,
        config.n_desc,
    )
    rtts: list[float] = []
    payload_pad = max(0, config.payload_bytes - _REQ.size)
    wire_bytes = (ETH_HEADER_BYTES + UDP_HEADER_BYTES
                  + config.payload_bytes)
    inter_arrival_ns = wire_bytes / (offered_gbps / 8.0)  # Gbps -> B/ns
    rng = sim.rng.stream("udpbench-arrivals")

    def echo_one(sock, payload, src_mac, src_port):
        yield from sock.sendto(payload, src_mac, src_port)

    def server_main():
        yield from server.start()
        sock = server.bind(SERVER_PORT)
        while True:
            payload, src_mac, src_port = yield from sock.recv()
            # Echo concurrently: a multi-core server is not serialized on
            # per-datagram software cost.
            sim.spawn(echo_one(sock, payload, src_mac, src_port),
                      name="echo")

    def one_request(sock, req_id):
        body = _REQ.pack(req_id, 0, sim.now) + bytes(payload_pad)
        yield from sock.sendto(body, SERVER_MAC, SERVER_PORT)

    def client_main():
        yield from client.start()
        sock = client.bind(CLIENT_PORT)

        def receiver():
            for _ in range(config.n_requests):
                payload, _mac, _port = yield from sock.recv()
                _req_id, _pad, sent_at = _REQ.unpack_from(payload, 0)
                rtts.append(sim.now - sent_at)

        rx = sim.spawn(receiver(), name="bench-rx")
        for req_id in range(config.n_requests):
            sim.spawn(one_request(sock, req_id), name=f"req{req_id}")
            yield sim.timeout(float(rng.exponential(inter_arrival_ns)))
        # Grace period for in-flight requests; under saturation some of
        # the offered load never completes in time — that is the point.
        grace = sim.timeout(config.n_requests * inter_arrival_ns
                            + 3_000_000.0)
        yield rx | grace

    c = sim.spawn(client_main(), name="bench-client")
    sim.spawn(server_main(), name="bench-server")
    sim.run(until=c)
    duration_ns = sim.now
    completed = len(rtts)
    achieved = (completed * wire_bytes * 8.0) / duration_ns  # Gbps
    arr = np.asarray(rtts) if rtts else np.asarray([float("inf")])
    point = UdpBenchPoint(
        offered_gbps=offered_gbps,
        achieved_gbps=achieved,
        rtt_p50_ns=float(np.percentile(arr, 50)),
        rtt_p99_ns=float(np.percentile(arr, 99)),
        rtt_mean_ns=float(arr.mean()),
        completed=completed,
        offered_requests=config.n_requests,
    )
    server.stop()
    client.stop()
    server_nic.stop()
    client_nic.stop()
    sim.shutdown()
    return point


def run_udp_bench(config: UdpBenchConfig,
                  offered_loads_gbps: list[float]) -> list[UdpBenchPoint]:
    """Sweep offered load to produce one latency-throughput curve."""
    return [run_udp_point(config, load) for load in offered_loads_gbps]
