"""Unit tests for the write-back CPU cache model."""

import pytest

from repro.cxl.cache import CpuCache

LINE = bytes(range(64))
OTHER = bytes(64)


def test_lookup_miss_then_hit():
    cache = CpuCache("h0")
    assert cache.lookup(0) is None
    cache.fill(0, LINE)
    assert cache.lookup(0) == LINE
    assert cache.hits == 1 and cache.misses == 1


def test_write_marks_dirty():
    cache = CpuCache("h0")
    cache.write(64, LINE)
    assert cache.is_dirty(64)
    assert cache.lookup(64) == LINE


def test_fill_is_clean():
    cache = CpuCache("h0")
    cache.fill(0, LINE)
    assert not cache.is_dirty(0)


def test_take_dirty_cleans_line_but_keeps_it():
    cache = CpuCache("h0")
    cache.write(0, LINE)
    assert cache.take_dirty(0) == LINE
    assert not cache.is_dirty(0)
    assert cache.lookup(0) == LINE
    assert cache.take_dirty(0) is None  # already clean


def test_invalidate_returns_dirty_data():
    cache = CpuCache("h0")
    cache.write(0, LINE)
    assert cache.invalidate(0) == LINE
    assert 0 not in cache
    cache.fill(0, LINE)
    assert cache.invalidate(0) is None  # clean drop, no write-back


def test_drop_clean_discards_without_writeback():
    cache = CpuCache("h0")
    cache.write(0, LINE)
    cache.drop_clean(0)
    assert 0 not in cache
    assert cache.writebacks == 0


def test_lru_eviction_writes_back_dirty():
    cache = CpuCache("h0", capacity_lines=2)
    cache.write(0, LINE)
    cache.fill(64, OTHER)
    evicted = cache.fill(128, OTHER)  # evicts addr 0 (LRU, dirty)
    assert evicted == [(0, LINE)]
    assert 0 not in cache
    assert 64 in cache and 128 in cache


def test_lru_order_refreshed_by_lookup():
    cache = CpuCache("h0", capacity_lines=2)
    cache.fill(0, LINE)
    cache.fill(64, OTHER)
    cache.lookup(0)  # refresh 0: now 64 is LRU
    cache.fill(128, OTHER)
    assert 0 in cache and 64 not in cache


def test_clean_eviction_is_silent():
    cache = CpuCache("h0", capacity_lines=1)
    cache.fill(0, LINE)
    evicted = cache.fill(64, OTHER)
    assert evicted == []


def test_dirty_line_returns_only_dirty_data():
    cache = CpuCache("h0")
    cache.write(0, LINE)
    cache.fill(64, OTHER)
    assert cache.dirty_line(0) == LINE
    assert cache.dirty_line(64) is None
    assert cache.dirty_line(128) is None
    # A peek: the line stays dirty and no counter moves.
    assert cache.is_dirty(0)
    assert (cache.hits, cache.misses, cache.writebacks) == (0, 0, 0)
    with pytest.raises(ValueError):
        cache.dirty_line(3)


def test_drop_span_drops_every_overlapping_line():
    cache = CpuCache("h0")
    for addr in (0, 64, 128, 192):
        cache.write(addr, LINE)
    cache.drop_span(70, 100)            # overlaps lines 64 and 128
    assert sorted(cache._lines) == [0, 192]
    assert cache.writebacks == 0        # no write-back, like drop_clean
    assert cache.holds_any(range(0, 64, 64))
    assert not cache.holds_any(range(64, 192, 64))
    with pytest.raises(ValueError):
        cache.drop_span(0, 0)


def test_clear_returns_dirty():
    cache = CpuCache("h0")
    cache.write(0, LINE)
    cache.fill(64, OTHER)
    dirty = cache.clear()
    assert dirty == [(0, LINE)]
    assert len(cache) == 0


def test_alignment_and_size_validation():
    cache = CpuCache("h0")
    with pytest.raises(ValueError):
        cache.lookup(10)
    with pytest.raises(ValueError):
        cache.fill(0, b"short")
    with pytest.raises(ValueError):
        CpuCache("h0", capacity_lines=0)
