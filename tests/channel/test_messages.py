"""Unit tests for message wire formats."""

import pytest

from repro.channel.messages import (
    AssignmentReport,
    Completion,
    DeviceAnnounce,
    DeviceFailure,
    Doorbell,
    Fenced,
    Heartbeat,
    LeaseGrant,
    LeaseRenew,
    LoadReport,
    MmioRead,
    MmioReadReply,
    MmioWrite,
    Resync,
    decode_message,
    kind_code,
    kind_name,
)
from repro.channel.ring import SLOT_PAYLOAD_BYTES

ALL_MESSAGES = [
    MmioWrite(request_id=7, device_id=3, addr=0x1000, value=0xdeadbeef),
    MmioRead(request_id=8, device_id=3, addr=0x2000),
    MmioReadReply(request_id=8, value=0xcafe),
    Doorbell(request_id=9, device_id=1, queue_id=2, index=511),
    Completion(request_id=9, status=0),
    Heartbeat(request_id=1, timestamp_us=123456, healthy=1, epoch=3),
    LoadReport(request_id=2, device_id=1, utilization_permille=750,
               queue_depth=12, epoch=3),
    DeviceFailure(request_id=3, device_id=1, reason=2, epoch=3),
    Resync(request_id=6, epoch=4),
    DeviceAnnounce(request_id=7, device_id=2, kind_code=1, healthy=1,
                   epoch=4),
    AssignmentReport(request_id=8, virtual_id=11, device_id=2,
                     kind_code=1, generation=5, epoch=4),
    LeaseRenew(request_id=9, device_id=3, token=17, epoch=4),
    LeaseGrant(request_id=9, device_id=3, token=18,
               expires_at_ns=123_456_789, status=0),
    Fenced(request_id=0, device_id=3, op_id=41, token=19),
]


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_encode_decode_roundtrip(msg):
    assert decode_message(msg.encode()) == msg


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_encodings_fit_one_slot(msg):
    assert len(msg.encode()) <= SLOT_PAYLOAD_BYTES


def test_tags_are_unique():
    tags = [type(m).TAG for m in ALL_MESSAGES]
    assert len(tags) == len(set(tags))


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown message tag"):
        decode_message(bytes([255, 0, 0]))


def test_empty_payload_rejected():
    with pytest.raises(ValueError, match="empty"):
        decode_message(b"")


def test_epoch_defaults_to_zero():
    assert Heartbeat(request_id=1, timestamp_us=0, healthy=1).epoch == 0
    assert DeviceFailure(request_id=1, device_id=1, reason=1).epoch == 0


def test_kind_codes_roundtrip():
    for kind in ("nic", "ssd", "accelerator"):
        assert kind_name(kind_code(kind)) == kind
    assert kind_code("toaster") == 0
    assert kind_name(0) == "unknown"
    assert kind_name(250) == "unknown"


def test_large_values_roundtrip():
    msg = MmioWrite(
        request_id=2**32 - 1, device_id=2**64 - 1,
        addr=2**64 - 1, value=2**64 - 1,
    )
    assert decode_message(msg.encode()) == msg
