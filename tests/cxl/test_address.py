"""Unit tests for addressing, ranges, and interleaving."""

import pytest

from repro.cxl.address import (
    CACHELINE_BYTES,
    AddressRange,
    line_base,
    line_range,
)
from repro.cxl.pod import POOL_BASE, CxlPod, PodConfig
from repro.sim import Simulator


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


def _pod(n_mhds):
    return CxlPod(Simulator(), PodConfig(n_hosts=1, n_mhds=n_mhds,
                                         mhd_capacity=1 << 20))


def _bytes_per_mhd(pod, addr, size):
    return {idx: length for idx, _media, _dev, length
            in pod.extents(addr, size)}


def test_interleave_bytes_per_link_balances_large_transfers():
    totals = _bytes_per_mhd(_pod(4), POOL_BASE, 64 * 1024)
    assert set(totals) == {0, 1, 2, 3}
    assert max(totals.values()) - min(totals.values()) <= 256


def test_interleave_single_link_takes_all():
    assert _bytes_per_mhd(_pod(1), POOL_BASE + 100, 4096) == {0: 4096}


def test_interleave_validation():
    # The pod's interleave granularity must be a whole number of lines.
    for granularity in (0, 32, 100):
        with pytest.raises(ValueError):
            PodConfig(interleave_bytes=granularity)
    assert PodConfig(interleave_bytes=128).interleave_bytes == 128


def test_cacheline_never_crosses_interleave_block():
    pod = _pod(8)
    for base in range(0, 4096, CACHELINE_BYTES):
        assert len(pod.extents(POOL_BASE + base, CACHELINE_BYTES)) == 1
