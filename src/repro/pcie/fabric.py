"""Ethernet fabric connecting NICs: frames, wires, and a simple switch.

The frame model is byte-faithful: a frame is ``dst_mac (8 B) ‖ src_mac
(8 B) ‖ payload``, which is exactly what NIC DMA engines read from and
write into I/O buffers — so a UDP datagram placed in CXL pool memory
really travels as bytes end to end.

The switch is output-queued store-and-forward: the sender pays wire
serialization at its port rate, the switch adds a fixed forwarding
latency, and frames to unknown MACs are dropped (counted).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.pcie.nic import Nic

_ETH = struct.Struct("<QQ")
ETH_HEADER_BYTES = _ETH.size  # 16


@dataclass(frozen=True)
class EthernetFrame:
    """A parsed frame (the on-wire form is just bytes)."""

    dst_mac: int
    src_mac: int
    payload: bytes

    def encode(self) -> bytes:
        return _ETH.pack(self.dst_mac, self.src_mac) + self.payload

    @classmethod
    def decode(cls, raw: bytes) -> "EthernetFrame":
        if len(raw) < ETH_HEADER_BYTES:
            raise ValueError(f"frame of {len(raw)} B shorter than header")
        dst, src = _ETH.unpack_from(raw, 0)
        return cls(dst, src, raw[ETH_HEADER_BYTES:])

    @property
    def size(self) -> int:
        return ETH_HEADER_BYTES + len(self.payload)


class EthernetSwitch:
    """A single switch all NICs in an experiment plug into."""

    def __init__(self, sim: Simulator, name: str = "eth-switch"):
        self.sim = sim
        self.forward_latency_ns = 500.0
        self.name = name
        self._ports: dict[int, "Nic"] = {}
        self.frames_forwarded = 0
        self.frames_dropped = 0

    def connect(self, nic: "Nic") -> None:
        """Plug a NIC into the switch (keyed by its MAC)."""
        if nic.mac in self._ports:
            raise ValueError(
                f"MAC {nic.mac:#x} already connected to {self.name}"
            )
        self._ports[nic.mac] = nic

    def disconnect(self, nic: "Nic") -> None:
        self._ports.pop(nic.mac, None)

    def forward(self, raw: bytes):
        """Process: carry an already-serialized frame to its destination.

        The *sender* has already paid wire serialization; this adds the
        switch forwarding latency and hands the frame to the target NIC.
        """
        yield self.sim.timeout(self.forward_latency_ns)
        frame = EthernetFrame.decode(raw)
        nic = self._ports.get(frame.dst_mac)
        if nic is None or nic.failed:
            self.frames_dropped += 1
            return
        self.frames_forwarded += 1
        nic.deliver(raw)

    @property
    def n_ports(self) -> int:
        return len(self._ports)

    def __repr__(self) -> str:
        return (
            f"<EthernetSwitch {self.name!r} ports={self.n_ports} "
            f"fwd={self.frames_forwarded} drop={self.frames_dropped}>"
        )
