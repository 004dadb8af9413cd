"""Unit tests for pods, MHDs, and pool address routing."""

import pytest

from repro.cxl.allocator import AllocationError
from repro.cxl.device import PoisonedMemoryError
from repro.cxl.mhd import (
    MhdFailedError, MhdPortExhausted, MultiHeadedDevice,
)
from repro.cxl.pod import (
    POOL_BASE, CxlPod, PartialPoolWriteError, PodConfig,
)
from repro.sim import Simulator


def small_pod(n_hosts=4, n_mhds=2):
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(
        n_hosts=n_hosts, n_mhds=n_mhds, mhd_capacity=1 << 26,
    ))
    return sim, pod


def test_pod_creates_hosts_and_links():
    _sim, pod = small_pod(n_hosts=4, n_mhds=3)
    assert pod.host_ids == ["h0", "h1", "h2", "h3"]
    for host_id in pod.host_ids:
        memsys = pod.host(host_id)
        assert len(memsys.port.links) == 3


def test_unknown_host_rejected():
    _sim, pod = small_pod()
    with pytest.raises(KeyError):
        pod.host("h99")


def test_pool_capacity_is_sum_of_mhds():
    _sim, pod = small_pod(n_mhds=2)
    assert pod.config.pool_capacity == 2 << 26


def test_route_interleaves_across_mhds():
    _sim, pod = small_pod(n_mhds=2)
    # Block 0 (first 256B) -> mhd0, block 1 -> mhd1, block 2 -> mhd0@256...
    idx0, _m0, dev0 = pod.route(POOL_BASE)
    idx1, _m1, dev1 = pod.route(POOL_BASE + 256)
    idx2, _m2, dev2 = pod.route(POOL_BASE + 512)
    assert (idx0, dev0) == (0, 0)
    assert (idx1, dev1) == (1, 0)
    assert (idx2, dev2) == (0, 256)


def test_route_is_a_bijection_onto_device_space():
    _sim, pod = small_pod(n_mhds=3)
    seen = set()
    for offset in range(0, 3 * 1024, 64):
        idx, _media, dev = pod.route(POOL_BASE + offset)
        key = (idx, dev)
        assert key not in seen
        seen.add(key)


def test_pool_read_write_roundtrip_across_mhd_boundary():
    _sim, pod = small_pod(n_mhds=2)
    payload = bytes(i % 256 for i in range(1024))  # spans 4 interleave blocks
    addr = POOL_BASE + 128
    pod.pool_write(addr, payload)
    assert pod.pool_read(addr, 1024) == payload
    # The data must actually be split across both MHDs.
    assert pod.mhds[0].memory.resident_bytes > 0
    assert pod.mhds[1].memory.resident_bytes > 0


def test_pool_span_out_of_bounds_rejected():
    _sim, pod = small_pod()
    with pytest.raises(ValueError):
        pod.pool_read(POOL_BASE + pod.config.pool_capacity - 10, 20)


def test_allocate_returns_pod_global_addresses():
    _sim, pod = small_pod()
    alloc = pod.allocate(4096, owners=["h0"])
    assert alloc.range.base >= POOL_BASE
    pod.free(alloc)
    with pytest.raises(ValueError):
        pod.free(alloc)


def test_allocations_visible_to_all_owners():
    sim, pod = small_pod()
    alloc = pod.allocate(4096, owners=["h0", "h1"], label="shared")
    pod.pool_write(alloc.range.base, b"ping")
    assert pod.pool_read(alloc.range.base, 4) == b"ping"


def test_mhd_port_exhaustion():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=2)
    mhd.connect("a")
    mhd.connect("b")
    with pytest.raises(MhdPortExhausted):
        mhd.connect("c")


def test_mhd_duplicate_connect_rejected():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=2)
    mhd.connect("a")
    with pytest.raises(ValueError):
        mhd.connect("a")


def test_mhd_disconnect_frees_port():
    sim = Simulator()
    mhd = MultiHeadedDevice(sim, 1 << 20, n_ports=1)
    mhd.connect("a")
    mhd.disconnect("a")
    mhd.connect("b")
    assert mhd.connected_hosts == ["b"]
    with pytest.raises(KeyError):
        mhd.link_of("a")


def test_mhd_port_count_limit():
    sim = Simulator()
    with pytest.raises(ValueError):
        MultiHeadedDevice(sim, 1 << 20, n_ports=21)


def test_pod_config_validation():
    with pytest.raises(ValueError):
        PodConfig(n_hosts=0)
    with pytest.raises(ValueError):
        PodConfig(n_mhds=0)
    with pytest.raises(ValueError):
        PodConfig(ras_bytes_per_mhd=100)  # not interleave-aligned
    with pytest.raises(ValueError):
        PodConfig(mhd_capacity=1 << 26, ras_bytes_per_mhd=1 << 26)


# -- memory RAS: direct windows, confined allocation, failure domains -----


def test_ras_window_addresses_route_direct():
    _sim, pod = small_pod(n_mhds=2)
    cfg = pod.config
    for mhd_idx in range(2):
        addr = pod.ras_probe_addr(mhd_idx)
        idx, _media, dev = pod.route(addr)
        assert idx == mhd_idx
        assert dev == cfg.direct_offset
        # The window's last byte stays on the same device.
        idx_end, _m, dev_end = pod.route(
            addr + cfg.ras_window_bytes - 1)
        assert idx_end == mhd_idx
        assert dev_end == cfg.mhd_capacity - 1


def test_confined_allocations_round_robin_across_mhds():
    _sim, pod = small_pod(n_mhds=2)
    a = pod.allocate_confined(4096, owners=["h0"], label="a")
    b = pod.allocate_confined(4096, owners=["h0"], label="b")
    c = pod.allocate_confined(4096, owners=["h0"], label="c")
    domains = [pod.mhd_of(x.range.base) for x in (a, b, c)]
    assert domains == [0, 1, 0]
    assert pod.allocation_mhds(a) == {0}
    assert pod.allocation_mhds(b) == {1}
    # Interleaved allocations span every failure domain.
    inter = pod.allocate(4096, owners=["h0"])
    assert pod.allocation_mhds(inter) == {0, 1}


def test_confined_roundtrip_and_free():
    _sim, pod = small_pod(n_mhds=2)
    alloc = pod.allocate_confined(4096, owners=["h0"], label="ring")
    pod.pool_write(alloc.range.base, b"confined-bytes")
    assert pod.pool_read(alloc.range.base, 14) == b"confined-bytes"
    # Only the confining device holds the bytes.
    assert pod.mhds[0].memory.resident_bytes > 0
    assert pod.mhds[1].memory.resident_bytes == 0
    assert [entry[2] for entry in pod.ras_allocations()] == ["ring"]
    pod.free(alloc)
    assert pod.ras_allocations() == []


def test_confined_span_may_not_cross_windows():
    _sim, pod = small_pod(n_mhds=2)
    addr = pod.ras_probe_addr(0) + pod.ras_window_bytes - 64
    with pytest.raises(ValueError):
        pod.pool_read(addr, 128)


def test_failed_mhd_fails_reads_before_any_byte_moves():
    _sim, pod = small_pod(n_mhds=2)
    payload = bytes(1024)
    pod.pool_write(POOL_BASE, payload)
    pod.fail_mhd(1)
    with pytest.raises(MhdFailedError):
        pod.pool_read(POOL_BASE, 1024)  # stripe touches mhd1
    pod.repair_mhd(1)
    assert pod.pool_read(POOL_BASE, 1024) == payload


def test_failed_mhd_makes_interleaved_write_atomic():
    """A stripe write to a pod with a dead MHD writes zero bytes."""
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(1)
    before = pod.mhds[0].memory.resident_bytes
    with pytest.raises(MhdFailedError):
        pod.pool_write(POOL_BASE, bytes(range(256)) * 4)
    assert pod.mhds[0].memory.resident_bytes == before


def test_partial_write_error_reports_torn_extent():
    """Defensive mid-loop failure surfaces as an explicit torn write."""
    _sim, pod = small_pod(n_mhds=2)
    original_check = pod.mhds[1].check_alive
    calls = {"n": 0}

    def check_then_die():
        # The 1024 B stripe is one run on each MHD, so the pre-write
        # health check probes mhd1 once; die on its first check inside
        # the loop, after mhd0's run has landed.
        calls["n"] += 1
        if calls["n"] > 1:
            pod.mhds[1].failed = True
        original_check()

    pod.mhds[1].check_alive = check_then_die
    with pytest.raises(PartialPoolWriteError) as err:
        pod.pool_write(POOL_BASE, bytes(1024))
    assert 0 < err.value.written < err.value.total == 1024


def test_watched_write_tears_at_an_interleave_block():
    """A span with watched lines on two MHDs is written line by line in
    address order, and a mid-loop failure still tears where a block's
    MHD is checked: after block 0, not after mhd0's whole run."""
    _sim, pod = small_pod(n_mhds=2)
    fired = []
    for mhd_idx in (0, 1):
        # Device line 0: the span's block 0 on mhd0, block 1 on mhd1.
        pod.mhds[mhd_idx].memory.watch_line(
            0, lambda i=mhd_idx: fired.append(i))
    original_check = pod.mhds[1].check_alive
    calls = {"n": 0}

    def check_then_die():
        calls["n"] += 1
        if calls["n"] > 1:
            pod.mhds[1].failed = True
        original_check()

    pod.mhds[1].check_alive = check_then_die
    with pytest.raises(PartialPoolWriteError) as err:
        pod.pool_write(POOL_BASE, bytes(1024))
    assert (err.value.written, fired) == (256, [0])


def test_allocation_falls_back_to_confined_when_mhd_down():
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(0)
    alloc = pod.allocate(4096, owners=["h0"])
    assert pod.mhd_of(alloc.range.base) == 1  # confined to the survivor
    pod.pool_write(alloc.range.base, b"degraded-but-alive")
    assert pod.pool_read(alloc.range.base, 18) == b"degraded-but-alive"
    pod.repair_mhd(0)
    pod.fail_mhd(1)
    pod.fail_mhd(0)
    with pytest.raises(AllocationError):
        pod.allocate(4096, owners=["h0"])


def test_poison_routes_through_pool_address():
    _sim, pod = small_pod(n_mhds=2)
    alloc = pod.allocate_confined(4096, owners=["h0"])
    pod.pool_write(alloc.range.base, bytes(128))
    pod.poison(alloc.range.base, n_lines=2)
    with pytest.raises(PoisonedMemoryError):
        pod.pool_read(alloc.range.base, 64)
    with pytest.raises(PoisonedMemoryError):
        pod.pool_read(alloc.range.base + 64, 64)
    counters = pod.ras_counters()
    assert counters["poisons_injected"] == 2
    assert counters["poison_reads"] == 2
    # Overwriting scrubs: the accounting identity holds.
    pod.pool_write(alloc.range.base, bytes(128))
    counters = pod.ras_counters()
    assert counters["poisons_injected"] == (
        counters["poisons_scrubbed"] + counters["poisoned_resident"]
    )
    assert counters["poisoned_resident"] == 0


def test_ras_counters_track_mhd_failures():
    _sim, pod = small_pod(n_mhds=2)
    pod.fail_mhd(0)
    assert pod.ras_counters()["mhds_down"] == 1
    assert pod.healthy_mhds == [1]
    pod.repair_mhd(0)
    assert pod.ras_counters()["mhds_down"] == 0
    assert pod.ras_counters()["mhd_failures"] == 1
