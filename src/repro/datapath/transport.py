"""A minimal reliable transport whose connections can *migrate* (§5).

The paper's host-load-balancing discussion observes that TCP connections
are pinned to the server (and NIC) where they were set up, and that
prior work needs programmable switches to move them; "our virtual NIC
approach could implement the transformations required to migrate
connections seamlessly within the CXL pod."

This module supplies the missing substrate: a TCP-like reliable,
in-order, message-oriented transport over the UDP stack with

* sequence numbers, cumulative acks, a bounded send window,
* timer-driven retransmission,
* **exportable connection state** (:meth:`Connection.snapshot` /
  :meth:`Connection.restore`) so a connection can detach from one
  virtual NIC and resume on another, and
* a REBIND control segment that tells the peer the connection now
  speaks from a different NIC (new source MAC) — the L2 rewrite that
  the pod-internal migration needs; sequence state carries over, so the
  peer application never notices.

Segment wire format (inside a UDP payload)::

    byte  0    : type (1 = DATA, 2 = ACK, 3 = REBIND, 4 = REBIND-ACK)
    bytes 1..4 : seq (LE u32)      DATA: segment seq; ACK: cumulative
    bytes 5..6 : length (LE u16)   DATA only
    bytes 7..  : payload           DATA only
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.datapath.netstack import UdpSocket
from repro.sim import Interrupt, Store

_HDR = struct.Struct("<BIH")

TYPE_DATA = 1
TYPE_ACK = 2
TYPE_REBIND = 3
TYPE_REBIND_ACK = 4


@dataclass
class ConnectionState:
    """Everything needed to resume a connection elsewhere."""

    peer_mac: int
    peer_port: int
    local_port: int
    next_seq: int
    send_base: int
    unacked: dict[int, bytes] = field(default_factory=dict)
    recv_next: int = 0
    reorder: dict[int, bytes] = field(default_factory=dict)


class Connection:
    """One reliable connection bound to a UDP socket."""

    def __init__(self, sim, socket: UdpSocket, peer_mac: int,
                 peer_port: int, window: int = 16,
                 rto_ns: float = 300_000.0, name: str = "conn"):
        self.sim = sim
        self.socket = socket
        self.window = window
        self.rto_ns = rto_ns
        self.name = name
        self.state = ConnectionState(
            peer_mac=peer_mac, peer_port=peer_port,
            local_port=socket.port, next_seq=0, send_base=0,
        )
        self._delivery = Store(sim, name=f"{name}.delivery")
        self._window_slots = Store(sim, name=f"{name}.window")
        for _ in range(window):
            self._window_slots.put(None)
        self._loops: list = []
        self._closed = False
        # Telemetry.
        self.segments_sent = 0
        self.retransmissions = 0
        self.rebinds = 0
        self._start_loops()

    # -- lifecycle ---------------------------------------------------------

    def _start_loops(self) -> None:
        self._loops = [
            self.sim.spawn(self._receive_loop(), name=f"{self.name}.rx"),
            self.sim.spawn(self._retransmit_loop(),
                           name=f"{self.name}.rto"),
        ]

    def _stop_loops(self) -> None:
        for loop in self._loops:
            if loop.is_alive:
                loop.interrupt(cause="connection detached")
        self._loops = []

    def close(self) -> None:
        self._closed = True
        self._stop_loops()

    # -- application API -------------------------------------------------------

    def send(self, payload: bytes):
        """Process: reliably deliver ``payload`` in order to the peer."""
        if self._closed:
            raise RuntimeError(f"{self.name} is closed")
        yield self._window_slots.get()  # window backpressure
        seq = self.state.next_seq
        self.state.next_seq += 1
        self.state.unacked[seq] = payload
        yield from self._transmit_data(seq, payload)

    def recv(self):
        """Process: next in-order payload from the peer."""
        item = yield self._delivery.get()
        return item

    @property
    def inflight(self) -> int:
        return len(self.state.unacked)

    # -- migration (§5) ----------------------------------------------------------

    def snapshot(self) -> ConnectionState:
        """Freeze the connection for transfer: stops I/O loops.

        The returned state (a few hundred bytes: sequence numbers plus
        unacked segments) is what travels through shared CXL memory to
        wherever the connection resumes.
        """
        self._stop_loops()
        return self.state

    @classmethod
    def restore(cls, sim, socket: UdpSocket, state: ConnectionState,
                window: int = 16, rto_ns: float = 300_000.0,
                name: str = "conn") -> "Connection":
        """Resume a snapshotted connection on a (possibly new) socket."""
        conn = cls.__new__(cls)
        conn.sim = sim
        conn.socket = socket
        conn.window = window
        conn.rto_ns = rto_ns
        conn.name = name
        conn.state = state
        state.local_port = socket.port
        conn._delivery = Store(sim, name=f"{name}.delivery")
        conn._window_slots = Store(sim, name=f"{name}.window")
        free = window - len(state.unacked)
        for _ in range(max(0, free)):
            conn._window_slots.put(None)
        conn._closed = False
        conn.segments_sent = 0
        conn.retransmissions = 0
        conn.rebinds = 0
        conn._start_loops()
        return conn

    def announce_rebind(self, timeout_ns: float = 5_000_000.0):
        """Process: tell the peer this connection moved to a new NIC.

        Sent from the *new* socket so the peer learns the new source MAC;
        retransmitted until the peer acknowledges.  Also retransmits all
        unacked data (the old NIC may have dropped it).
        """
        self.rebinds += 1
        acked = self.sim.event(name=f"{self.name}.rebind-acked")
        self._rebind_waiter = acked
        deadline = self.sim.now + timeout_ns
        while not acked.triggered and self.sim.now < deadline:
            yield from self._send_segment(TYPE_REBIND, 0, b"")
            expire = self.sim.timeout(self.rto_ns)
            yield acked | expire
        if not acked.triggered:
            raise TimeoutError(
                f"{self.name}: peer never acknowledged the rebind"
            )
        for seq, payload in sorted(self.state.unacked.items()):
            yield from self._transmit_data(seq, payload, retransmit=True)

    # -- internals ------------------------------------------------------------------

    def _transmit_data(self, seq: int, payload: bytes,
                       retransmit: bool = False):
        if retransmit:
            self.retransmissions += 1
        yield from self._send_segment(TYPE_DATA, seq, payload)

    def _send_segment(self, seg_type: int, seq: int, payload: bytes):
        header = _HDR.pack(seg_type, seq, len(payload))
        self.segments_sent += 1
        yield from self.socket.sendto(
            header + payload, self.state.peer_mac, self.state.peer_port
        )

    def _receive_loop(self):
        try:
            while True:
                raw, src_mac, _src_port = yield from self.socket.recv()
                seg_type, seq, length = _HDR.unpack_from(raw, 0)
                payload = raw[_HDR.size:_HDR.size + length]
                if seg_type == TYPE_DATA:
                    yield from self._on_data(seq, payload)
                elif seg_type == TYPE_ACK:
                    self._on_ack(seq)
                elif seg_type == TYPE_REBIND:
                    # Peer moved: adopt its new MAC, confirm.
                    self.state.peer_mac = src_mac
                    yield from self._send_segment(TYPE_REBIND_ACK, 0, b"")
                elif seg_type == TYPE_REBIND_ACK:
                    waiter = getattr(self, "_rebind_waiter", None)
                    if waiter is not None and not waiter.triggered:
                        waiter.succeed()
        except Interrupt:
            return

    def _on_data(self, seq: int, payload: bytes):
        state = self.state
        if seq >= state.recv_next:
            state.reorder.setdefault(seq, payload)
            while state.recv_next in state.reorder:
                self._delivery.put(state.reorder.pop(state.recv_next))
                state.recv_next += 1
        # Always (re)ack the cumulative frontier — covers duplicates.
        yield from self._send_segment(TYPE_ACK, state.recv_next, b"")

    def _on_ack(self, cumulative: int) -> None:
        state = self.state
        freed = [s for s in state.unacked if s < cumulative]
        for seq in freed:
            del state.unacked[seq]
            self._window_slots.put(None)
        state.send_base = max(state.send_base, cumulative)

    def _retransmit_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.rto_ns)
                if self._closed:
                    return
                for seq, payload in sorted(self.state.unacked.items()):
                    yield from self._transmit_data(
                        seq, payload, retransmit=True
                    )
        except Interrupt:
            return

    def __repr__(self) -> str:
        return (
            f"<Connection {self.name!r} next_seq={self.state.next_seq} "
            f"inflight={self.inflight} rtx={self.retransmissions}>"
        )
