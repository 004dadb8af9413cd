"""Unit tests for addressing, ranges, and interleaving."""

import pytest

from repro.cxl.address import (
    CACHELINE_BYTES,
    AddressRange,
    InterleaveMap,
    line_base,
    line_range,
)


def test_line_base_alignment():
    assert line_base(0) == 0
    assert line_base(63) == 0
    assert line_base(64) == 64
    assert line_base(130) == 128


def test_line_range_covers_span():
    lines = list(line_range(10, 120))  # [10, 130) touches lines 0, 64, 128
    assert lines == [0, 64, 128]


def test_line_range_rejects_empty():
    with pytest.raises(ValueError):
        line_range(0, 0)


def test_address_range_contains():
    r = AddressRange(0x1000, 0x100)
    assert r.contains(0x1000)
    assert r.contains(0x10ff)
    assert not r.contains(0x1100)
    assert r.contains(0x1000, 0x100)
    assert not r.contains(0x1000, 0x101)


def test_address_range_overlaps():
    a = AddressRange(0, 100)
    b = AddressRange(50, 100)
    c = AddressRange(100, 10)
    assert a.overlaps(b)
    assert not a.overlaps(c)


def test_address_range_offset_of():
    r = AddressRange(0x1000, 0x100)
    assert r.offset_of(0x1010) == 0x10
    with pytest.raises(ValueError):
        r.offset_of(0x2000)


def test_address_range_subrange():
    r = AddressRange(0x1000, 0x100)
    s = r.subrange(0x10, 0x20)
    assert s.base == 0x1010 and s.size == 0x20
    with pytest.raises(ValueError):
        r.subrange(0xf0, 0x20)


def test_address_range_validation():
    with pytest.raises(ValueError):
        AddressRange(-1, 10)
    with pytest.raises(ValueError):
        AddressRange(0, 0)


def _bytes_per_link(imap, addr, size):
    totals = {}
    for link, _chunk_addr, chunk_size in imap.split(addr, size):
        totals[link] = totals.get(link, 0) + chunk_size
    return totals


def test_interleave_round_robin_at_256B():
    imap = InterleaveMap(4)
    assert imap.split(0, 256) == [(0, 0, 256)]
    assert imap.split(255, 2) == [(0, 255, 1), (1, 256, 1)]
    # Block k goes to link k mod 4: the fifth block wraps to link 0.
    assert [link for link, _, _ in imap.split(0, 5 * 256)] == [0, 1, 2, 3, 0]
    assert imap.split(1024, 64) == [(0, 1024, 64)]


def test_interleave_split_preserves_total_size():
    imap = InterleaveMap(3)
    chunks = imap.split(100, 1000)
    assert sum(size for _, _, size in chunks) == 1000
    # Chunks are contiguous and in order.
    cur = 100
    for _link, addr, size in chunks:
        assert addr == cur
        cur += size


def test_interleave_bytes_per_link_balances_large_transfers():
    imap = InterleaveMap(4)
    totals = _bytes_per_link(imap, 0, 64 * 1024)
    assert set(totals) == {0, 1, 2, 3}
    assert max(totals.values()) - min(totals.values()) <= 256


def test_interleave_single_link_takes_all():
    imap = InterleaveMap(1)
    assert _bytes_per_link(imap, 0, 4096) == {0: 4096}


def test_interleave_validation():
    with pytest.raises(ValueError):
        InterleaveMap(0)
    with pytest.raises(ValueError):
        InterleaveMap(2, granularity=100)  # not a cacheline multiple
    imap = InterleaveMap(2)
    with pytest.raises(ValueError):
        imap.split(0, 0)


def test_cacheline_never_crosses_interleave_block():
    imap = InterleaveMap(8)
    for base in range(0, 4096, CACHELINE_BYTES):
        chunks = imap.split(base, CACHELINE_BYTES)
        assert len(chunks) == 1
