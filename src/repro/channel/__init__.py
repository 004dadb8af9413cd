"""Shared-memory communication channels over non-coherent CXL memory.

The paper's key enabling mechanism (§4.1): a host cannot MMIO into a
remote device's BARs, so device-memory operations must be *forwarded* to
the host that physically owns the device.  The forwarding medium is a ring
buffer in shared CXL pool memory with 64 B message slots (one cacheline),
software coherence via non-temporal stores, and busy-polling receivers —
achieving sub-microsecond latency (median ≈ 600 ns in the paper's Figure 4)
without any cross-host hardware coherence.

Layers:

* :mod:`repro.channel.ring` — the SPSC cacheline ring itself;
* :mod:`repro.channel.messages` — fixed-size wire formats (MMIO ops,
  doorbells, control-plane telemetry);
* :mod:`repro.channel.rpc` — request/response matching over ring pairs;
* :mod:`repro.channel.pingpong` — the Figure 4 latency harness.
"""

from repro.channel.messages import (
    Completion,
    Doorbell,
    Heartbeat,
    LoadReport,
    Message,
    MmioRead,
    MmioReadReply,
    MmioWrite,
    decode_message,
)
from repro.channel.fragment import FragmentReceiver, FragmentSender
from repro.channel.pingpong import PingPongResult, run_pingpong
from repro.channel.ring import RingChannel, RingReceiver, RingSender
from repro.channel.rpc import RpcEndpoint, RpcError

__all__ = [
    "Completion",
    "Doorbell",
    "FragmentReceiver",
    "FragmentSender",
    "Heartbeat",
    "LoadReport",
    "Message",
    "MmioRead",
    "MmioReadReply",
    "MmioWrite",
    "PingPongResult",
    "RingChannel",
    "RingReceiver",
    "RingSender",
    "RpcEndpoint",
    "RpcError",
    "decode_message",
    "run_pingpong",
]
