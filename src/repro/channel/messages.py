"""Fixed-size wire formats for ring-channel messages.

Every message encodes to at most 57 B so it fits one ring slot (one
cacheline including the slot header and its CRC).  The set mirrors what the datapath
and orchestrator need to forward between hosts:

* device-memory operations from remote hosts — MMIO reads/writes and
  doorbell rings (§4.1 "event signaling and host-to-host communications");
* control-plane traffic between agents and the orchestrator — heartbeats,
  load reports, failure reports, resyncs and leases (§4.2).

All encodings are little-endian structs with a one-byte type tag.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from typing import ClassVar

from repro.channel.ring import SLOT_PAYLOAD_BYTES

_REGISTRY: dict[int, type] = {}


def _register(cls):
    """Class decorator: register a message type by its tag byte."""
    tag = cls.TAG
    if tag in _REGISTRY:
        raise ValueError(
            f"duplicate message tag {tag}: {cls.__name__} vs "
            f"{_REGISTRY[tag].__name__}"
        )
    _REGISTRY[tag] = cls
    return cls


@dataclass(frozen=True)
class Message:
    """Base class; subclasses define TAG, _FMT, and field order."""

    TAG: ClassVar[int] = -1
    _FMT: ClassVar[struct.Struct]

    def encode(self) -> bytes:
        fields = tuple(getattr(self, name) for name in self._fields())
        payload = bytes([self.TAG]) + self._FMT.pack(*fields)
        if len(payload) > SLOT_PAYLOAD_BYTES:
            raise ValueError(
                f"{type(self).__name__} encodes to {len(payload)} B "
                f"> slot capacity {SLOT_PAYLOAD_BYTES} B"
            )
        return payload

    @classmethod
    def decode_body(cls, body: bytes) -> "Message":
        return cls(*cls._FMT.unpack(body[:cls._FMT.size]))

    @classmethod
    def _fields(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


def decode_message(payload: bytes) -> Message:
    """Decode a ring-slot payload back into its typed message."""
    if not payload:
        raise ValueError("empty message payload")
    tag = payload[0]
    cls = _REGISTRY.get(tag)
    if cls is None:
        raise ValueError(f"unknown message tag {tag}")
    return cls.decode_body(payload[1:])


# -- device memory operations (datapath) ------------------------------------


@_register
@dataclass(frozen=True)
class MmioWrite(Message):
    """Write ``value`` to device BAR offset ``addr`` of device ``device_id``.

    ``op_id`` is a client-assigned operation id, stable across transport
    retries (each retry gets a fresh ``request_id`` but keeps ``op_id``),
    so the owner's dedup journal can suppress double-applies.  ``token``
    is the fencing token of the lease the client believes the owner
    holds; a stale token is rejected with STATUS_FENCED.  Both default to
    0 = "unfenced legacy caller".
    """

    TAG: ClassVar[int] = 1
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQQQII")

    request_id: int
    device_id: int
    addr: int
    value: int
    op_id: int = 0
    token: int = 0


@_register
@dataclass(frozen=True)
class MmioRead(Message):
    """Read 8 B from device BAR offset ``addr``; answered by MmioReadReply."""

    TAG: ClassVar[int] = 2
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQQII")

    request_id: int
    device_id: int
    addr: int
    op_id: int = 0
    token: int = 0


@_register
@dataclass(frozen=True)
class MmioReadReply(Message):
    TAG: ClassVar[int] = 3
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQ")

    request_id: int
    value: int


@_register
@dataclass(frozen=True)
class Doorbell(Message):
    """Ring a device doorbell: "descriptors up to ``index`` are posted".

    The hot-path message: a remote host posts descriptors into shared CXL
    memory, then sends one Doorbell so the owning host taps the device's
    real MMIO doorbell register.
    """

    TAG: ClassVar[int] = 4
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQIQII")

    request_id: int
    device_id: int
    queue_id: int
    index: int
    op_id: int = 0
    token: int = 0


@_register
@dataclass(frozen=True)
class Completion(Message):
    """Generic acknowledgement carrying a status code.

    ``occupancy_permille`` piggybacks the replier's queue occupancy
    (in-flight / capacity, per-mille) on every ack — the cooperative
    backpressure signal clients feed their AIMD pacing windows.
    Appended after the legacy fields with a 0 = "no pressure" default,
    so constructors predating the field still encode correctly and old
    decoders (which slice their struct's prefix) ignore it.
    """

    TAG: ClassVar[int] = 5
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQH")

    request_id: int
    status: int
    occupancy_permille: int = 0


# -- control plane (orchestrator <-> agents) ----------------------------------

#: Wire encoding of device kinds (one byte).  0 is reserved for kinds the
#: encoder does not know; the decoder maps it back to ``"unknown"``.
KIND_CODES: dict[str, int] = {"nic": 1, "ssd": 2, "accelerator": 3}
_KIND_NAMES: dict[int, str] = {v: k for k, v in KIND_CODES.items()}


def kind_code(kind: str) -> int:
    return KIND_CODES.get(kind, 0)


def kind_name(code: int) -> str:
    return _KIND_NAMES.get(code, "unknown")


@_register
@dataclass(frozen=True)
class Heartbeat(Message):
    """Agent liveness beacon with a coarse health flag."""

    TAG: ClassVar[int] = 16
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQBB")

    request_id: int
    timestamp_us: int
    healthy: int
    epoch: int = 0


@_register
@dataclass(frozen=True)
class LoadReport(Message):
    """Per-device utilization report (per-mille to stay integer)."""

    TAG: ClassVar[int] = 17
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQHHB")

    request_id: int
    device_id: int
    utilization_permille: int
    queue_depth: int
    epoch: int = 0


@_register
@dataclass(frozen=True)
class DeviceFailure(Message):
    """Agent -> orchestrator: a device stopped responding.

    Carries the orchestrator epoch the agent last synced to: a restarted
    orchestrator fences failure events stamped with a pre-crash epoch,
    because the failure they describe may have been repaired while the
    orchestrator was down (current state arrives via DeviceAnnounce).
    """

    TAG: ClassVar[int] = 18
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQBB")

    request_id: int
    device_id: int
    reason: int
    epoch: int = 0


# -- self-healing control plane (orchestrator restart / agent resync) ---------


@_register
@dataclass(frozen=True)
class Resync(Message):
    """Orchestrator -> agent: "I restarted as ``epoch``; re-report".

    The agent answers by re-announcing its device inventory and the
    assignments it has adopted, then acks with a Completion.  Agents are
    the source of truth across orchestrator restarts (§4.2).
    """

    TAG: ClassVar[int] = 21
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IB")

    request_id: int
    epoch: int


@_register
@dataclass(frozen=True)
class DeviceAnnounce(Message):
    """Agent -> orchestrator: declarative "this device exists, state X".

    Unlike DeviceFailure this is idempotent current-state, so it is never
    epoch-fenced: a restarted orchestrator rebuilds its registry from
    these, and a repaired device is healed by a ``healthy=1`` announce.
    The owning host is implied by the control channel the message rides.
    """

    TAG: ClassVar[int] = 22
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQBBB")

    request_id: int
    device_id: int
    kind_code: int
    healthy: int
    epoch: int = 0


@_register
@dataclass(frozen=True)
class AssignmentReport(Message):
    """Agent -> orchestrator: a live assignment this host borrows.

    Replayed on resync so a restarted orchestrator reconstructs its
    assignment table; the generation lets it ignore reports older than
    what it already knows (fence against stale duplicates).
    """

    TAG: ClassVar[int] = 23
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IIQBIB")

    request_id: int
    virtual_id: int
    device_id: int
    kind_code: int
    generation: int
    epoch: int = 0


# -- lease protocol (fenced device ownership, §4.2) ---------------------------


@_register
@dataclass(frozen=True)
class LeaseRenew(Message):
    """Agent -> orchestrator: renew (or acquire) the lease on a device.

    ``token`` is the fencing token the agent currently holds, or 0 when
    it holds none (fresh start / stepped down).  The holder host is
    implied by the control channel the message rides.  Answered by a
    LeaseGrant matched on ``request_id``.
    """

    TAG: ClassVar[int] = 24
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQIB")

    request_id: int
    device_id: int
    token: int
    epoch: int = 0


@_register
@dataclass(frozen=True)
class LeaseGrant(Message):
    """Orchestrator -> agent: lease granted/renewed (status 0) or refused.

    ``expires_at_ns`` is an absolute sim timestamp; both sides share the
    pod clock, so the owner self-fences by refusing to serve past it
    without needing any further message exchange.
    """

    TAG: ClassVar[int] = 25
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQIQB")

    request_id: int
    device_id: int
    token: int
    expires_at_ns: int
    status: int = 0


@_register
@dataclass(frozen=True)
class BusyNack(Message):
    """Server -> client: op refused at admission — queue full, try later.

    The bounded-admission answer to silent queue growth: a server whose
    per-queue in-flight cap is reached refuses new work *immediately*
    with this nack instead of letting it pile up behind the channel.
    ``retry_after_ns`` is the server's pacing hint (a relative delay);
    ``occupancy_permille`` is the same backpressure signal Completion
    piggybacks, here reading at or near 1000.  Request-matched ops
    (MMIO read/write) receive it as their reply; for fire-and-forget
    doorbells it arrives unsolicited with ``request_id`` 0, like
    :class:`Fenced`.
    """

    TAG: ClassVar[int] = 27
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQQH")

    request_id: int
    device_id: int
    retry_after_ns: int
    occupancy_permille: int = 1000


@_register
@dataclass(frozen=True)
class Fenced(Message):
    """Owner -> borrower: unsolicited nack for a fenced doorbell.

    Doorbells are fire-and-forget, so a fenced one cannot be nacked with
    a request-matched Completion; this message lets the borrower learn
    its token is stale and re-resolve instead of waiting for the op
    timeout.  ``token`` is the server's current token (0 if revoked).
    """

    TAG: ClassVar[int] = 26
    _FMT: ClassVar[struct.Struct] = struct.Struct("<IQII")

    request_id: int
    device_id: int
    op_id: int
    token: int
