"""CXL pods: hosts within a rack sharing an MHD-based memory pool.

A pod (§3) is built from one or more multi-headed devices.  Every host has
one CXL link to every MHD; the pool's physical address space is interleaved
across the MHDs at 256 B granularity, so bulk transfers aggregate the
bandwidth of all links and the pod offers λ = ``n_mhds`` redundant devices
(the dense-topology construction the paper cites for high availability).

Pool addresses are *pod-global*: every host maps the pool at the same
physical base (:data:`POOL_BASE`), so a pool pointer can be passed between
hosts — exactly what the shared-memory datapath needs.

Memory RAS layout (§5): interleaving stripes every allocation across all
MHDs, which aggregates bandwidth but makes *every* byte depend on *every*
device — one MHD loss would take out every ring and buffer at once.  To
give the pod λ-redundant failure domains, the top of each MHD is carved
out as a *direct* (non-interleaved) RAS window::

    pool offset 0 .. n_mhds * direct_offset      : interleaved region
    then, per MHD m:  one window of ras_window_bytes, mapped 1:1 onto
    device addresses [direct_offset, mhd_capacity)

Channels and other critical control state allocate *confined* to a single
MHD (round-robin across healthy devices), so an MHD crash kills only the
channels that lived on it — the survivors keep the control plane up while
the orchestrator rebuilds the dead ones elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cxl.address import (
    AddressRange, CACHELINE_BYTES, INTERLEAVE_BYTES, line_base, line_range,
)
from repro.cxl.allocator import Allocation, AllocationError, PoolAllocator
from repro.cxl.device import CxlMemoryDevice, LocalDram
from repro.cxl.link import CxlLink, LinkDownError, LinkSpec
from repro.cxl.memsys import HostMemorySystem
from repro.cxl.mhd import MultiHeadedDevice
from repro.cxl.params import DEFAULT_TIMINGS, CxlTimings
from repro.sim import Simulator
from repro.sim.errors import SimError

#: Host physical address where the pool window is mapped (identical on all
#: hosts so pool pointers are portable across the pod).
POOL_BASE = 1 << 40

#: Default local DRAM per host: 4 GiB of modeled address space.
DEFAULT_LOCAL_DRAM = 4 << 30


class PartialPoolWriteError(LinkDownError):
    """A multi-chunk pool write failed after some chunks already landed.

    Subclasses :class:`LinkDownError` so every existing containment site
    survives it; callers that retry on link failure rewrite the full span,
    which is the correct recovery for a torn write.
    """

    def __init__(self, addr: int, written: int, total: int):
        SimError.__init__(
            self,
            f"pool write at {addr:#x} torn: {written}/{total} bytes landed"
        )
        self.link = None
        self.addr = addr
        self.written = written
        self.total = total


@dataclass(frozen=True)
class PodConfig:
    """Static description of a CXL pod."""

    n_hosts: int = 8
    n_mhds: int = 2
    mhd_capacity: int = 64 << 30
    link_spec: LinkSpec = field(default_factory=LinkSpec)
    timings: CxlTimings = DEFAULT_TIMINGS
    interleave_bytes: int = INTERLEAVE_BYTES
    local_dram_bytes: int = DEFAULT_LOCAL_DRAM
    #: Per-MHD direct (non-interleaved) RAS window carved from the top of
    #: each device.  ``None`` picks a default; must be a positive multiple
    #: of ``interleave_bytes`` smaller than ``mhd_capacity``.
    ras_bytes_per_mhd: int | None = None

    def __post_init__(self):
        if self.n_hosts < 1:
            raise ValueError("a pod needs at least one host")
        if self.n_mhds < 1:
            raise ValueError("a pod needs at least one MHD")
        if (self.interleave_bytes <= 0
                or self.interleave_bytes % CACHELINE_BYTES != 0):
            raise ValueError(
                f"interleave_bytes must be a positive multiple of "
                f"{CACHELINE_BYTES}, got {self.interleave_bytes}"
            )
        if self.mhd_capacity % self.interleave_bytes != 0:
            raise ValueError(
                "mhd_capacity must be a multiple of the interleave "
                f"granularity ({self.interleave_bytes})"
            )
        ras = self.ras_bytes_per_mhd
        if ras is not None and (
            ras <= 0
            or ras >= self.mhd_capacity
            or ras % self.interleave_bytes != 0
        ):
            raise ValueError(
                f"ras_bytes_per_mhd must be a positive multiple of "
                f"{self.interleave_bytes} below mhd_capacity, got {ras}"
            )

    @property
    def pool_capacity(self) -> int:
        return self.n_mhds * self.mhd_capacity

    @property
    def ras_window_bytes(self) -> int:
        """Resolved size of each MHD's direct RAS window."""
        if self.ras_bytes_per_mhd is not None:
            return self.ras_bytes_per_mhd
        # Default: 1/8 of the device, capped at 16 MiB — plenty for
        # channels while leaving the bulk of the media interleaved.
        raw = min(self.mhd_capacity // 8, 16 << 20)
        return max(
            self.interleave_bytes,
            (raw // self.interleave_bytes) * self.interleave_bytes,
        )

    @property
    def direct_offset(self) -> int:
        """Device-local address where each MHD's RAS window begins."""
        return self.mhd_capacity - self.ras_window_bytes

    @property
    def interleaved_capacity(self) -> int:
        """Pool bytes striped across all MHDs (below the RAS windows)."""
        return self.n_mhds * self.direct_offset


class HostPort:
    """One host's attachment to the pod: its links, DRAM, and cache."""

    def __init__(self, host_id: str, links: list[CxlLink],
                 local_dram: LocalDram):
        self.host_id = host_id
        self.links = links
        self.local_dram = local_dram

    def __repr__(self) -> str:
        up = sum(1 for link in self.links if link.up)
        return f"<HostPort {self.host_id} links={up}/{len(self.links)} up>"


class CxlPod:
    """A rack-scale CXL pod: hosts + MHDs + pool address space."""

    def __init__(self, sim: Simulator, config: PodConfig = PodConfig()):
        self.sim = sim
        self.config = config
        self.timings = config.timings
        self.mhds = [
            MultiHeadedDevice(
                sim, config.mhd_capacity,
                n_ports=min(config.n_hosts, 20),
                link_spec=config.link_spec,
                timings=config.timings,
                name=f"mhd{idx}",
            )
            for idx in range(config.n_mhds)
        ]
        self.interleaved_capacity = config.interleaved_capacity
        self.ras_window_bytes = config.ras_window_bytes
        self.allocator = PoolAllocator(self.interleaved_capacity)
        #: Per-MHD allocators over the direct RAS windows.
        self._ras_allocators = [
            PoolAllocator(self.ras_window_bytes)
            for _ in range(config.n_mhds)
        ]
        #: alloc base -> (confining mhd index or None, inner allocation).
        self._inner_allocs: dict[int, tuple[int | None, Allocation]] = {}
        self._ras_rr = 0
        #: Gray-quarantined MHDs: alive, but skipped for new placements.
        self._avoid_mhds: set[int] = set()
        self.pool_range = AddressRange(POOL_BASE, config.pool_capacity)
        self.hosts: dict[str, HostMemorySystem] = {}
        for idx in range(config.n_hosts):
            self._attach(f"h{idx}")

    # -- host attachment -----------------------------------------------------

    def _attach(self, host_id: str) -> HostMemorySystem:
        links = [mhd.connect(host_id) for mhd in self.mhds]
        port = HostPort(
            host_id, links,
            LocalDram(self.config.local_dram_bytes, host_id),
        )
        memsys = HostMemorySystem(self.sim, self, port)
        self.hosts[host_id] = memsys
        return memsys

    def host(self, host_id: str) -> HostMemorySystem:
        """Memory system of ``host_id``."""
        memsys = self.hosts.get(host_id)
        if memsys is None:
            raise KeyError(
                f"unknown host {host_id!r}; pod hosts: {sorted(self.hosts)}"
            )
        return memsys

    @property
    def host_ids(self) -> list[str]:
        return sorted(self.hosts, key=lambda h: (len(h), h))

    # -- pool address routing -------------------------------------------------

    def is_pool_address(self, addr: int) -> bool:
        return self.pool_range.contains(addr)

    def route(self, addr: int) -> tuple[int, CxlMemoryDevice, int]:
        """Route a pool address to ``(mhd_index, media, device_addr)``.

        Below :attr:`interleaved_capacity` the pool space is round-robin
        interleaved across MHDs at ``interleave_bytes`` granularity; above
        it, each MHD's direct RAS window maps 1:1 onto the top of that
        device's media.
        """
        offset = self.pool_range.offset_of(addr)
        if offset >= self.interleaved_capacity:
            rel = offset - self.interleaved_capacity
            mhd_idx, within = divmod(rel, self.ras_window_bytes)
            device_addr = self.config.direct_offset + within
            return mhd_idx, self.mhds[mhd_idx].memory, device_addr
        gran = self.config.interleave_bytes
        block, within = divmod(offset, gran)
        mhd_idx = block % self.config.n_mhds
        device_addr = (block // self.config.n_mhds) * gran + within
        return mhd_idx, self.mhds[mhd_idx].memory, device_addr

    def mhd_of(self, addr: int) -> int | None:
        """The confining MHD of a pool address (None if interleaved)."""
        if self.pool_range.offset_of(addr) < self.interleaved_capacity:
            return None
        return self.route(addr)[0]

    def extents(self, addr: int, size: int) -> list[tuple]:
        """Split a pool span into device runs, one per MHD it touches.

        Returns ``(mhd_index, media, device_addr, length)`` runs in
        first-touch order: the MHD of the span's first interleave block,
        then that of its second, and so on, or one run for a span inside
        an MHD's RAS window.  Block ``k`` of the interleaved region is
        block ``k // n_mhds`` of MHD ``k % n_mhds``, so the blocks a span
        puts on one MHD sit next to each other in that MHD's device
        space, and run ``r`` holds the span's blocks ``r``, ``r +
        n_mhds``, ...  This is :meth:`route` for a span; bulk copies,
        DMAs and the allocation scrub make one media call per run.
        Raises ValueError for a span that leaves the pool, straddles the
        interleaved/direct boundary or crosses a RAS window.
        """
        offset = addr - POOL_BASE
        capacity = self.config.pool_capacity
        if not 0 <= offset < capacity or offset + size > capacity:
            self.pool_range.offset_of(addr)  # raises for an outside addr
            raise ValueError(
                f"pool span [{addr:#x}, {addr + size:#x}) exceeds pool"
            )
        if size <= 0:
            if size == 0:
                return []
            raise ValueError(f"size must be positive, got {size}")
        if offset + size > self.interleaved_capacity:
            if offset < self.interleaved_capacity:
                raise ValueError(
                    f"pool span at offset {offset:#x} straddles the "
                    "interleaved/direct boundary"
                )
            mhd_idx, within = divmod(offset - self.interleaved_capacity,
                                     self.ras_window_bytes)
            if within + size > self.ras_window_bytes:
                raise ValueError(
                    f"pool span at offset {offset:#x} (+{size}) crosses a "
                    "RAS window boundary"
                )
            return [(mhd_idx, self.mhds[mhd_idx].memory,
                     self.config.direct_offset + within, size)]
        gran = self.config.interleave_bytes
        n = self.config.n_mhds
        end = offset + size
        first, last = offset // gran, (end - 1) // gran
        runs = []
        for block in range(first, min(first + n, last + 1)):
            # The run's first and last block, and its device span.
            top = block + (last - block) // n * n
            start = max(offset, block * gran)
            dev = block // n * gran + start % gran
            dev_end = top // n * gran + min(end - top * gran, gran)
            mhd_idx = block % n
            runs.append((mhd_idx, self.mhds[mhd_idx].memory, dev,
                         dev_end - dev))
        return runs

    def _stripe(self, addr: int, unit: int) -> tuple[int, int, int]:
        """How the span from pool address ``addr`` stripes over its runs,
        in ``unit``s (1 for bytes, 64 for lines of a line-aligned span):
        ``(head, block, stride)``, the units of its first interleave
        block before ``addr``, one block and one round of blocks."""
        gran = self.config.interleave_bytes
        return ((addr - self.pool_range.base) % gran // unit, gran // unit,
                gran // unit * self.config.n_mhds)

    def _gather(self, addr: int, seq, runs: list, unit: int,
                join) -> list:
        """Each run's share of ``seq``, in device order: ``seq`` is the
        span's bytes from ``addr`` (``unit`` 1) or its lines from
        line-aligned ``addr`` (``unit`` 64), ``runs`` its
        :meth:`extents`, and ``join`` makes a share of a run's slices."""
        if len(runs) == 1:
            return [seq]
        head, block, stride = self._stripe(addr, unit)
        return [join(_slices(seq, r * block - head, block, stride))
                for r in range(len(runs))]

    def _scatter(self, addr: int, shares: list) -> bytes:
        """The span's bytes from ``addr``, given each run's share in
        device order: the inverse of :meth:`_gather`."""
        if len(shares) == 1:
            return shares[0]
        head, block, _stride = self._stripe(addr, 1)
        n = self.config.n_mhds
        blocks = [_slices(share, -head if r == 0 else 0, block, block)
                  for r, share in enumerate(shares)]
        parts = [None] * sum(map(len, blocks))
        for r, share_blocks in enumerate(blocks):
            parts[r::n] = share_blocks
        return b"".join(parts)

    # -- functional pool access (no timing; used by media-side agents) --------

    def pool_read(self, addr: int, size: int) -> bytes:
        """Read pool bytes directly from the media (no cache, no timing).

        Raises :class:`~repro.cxl.mhd.MhdFailedError` before reading any
        byte if any run targets a failed MHD; the first poisoned line in
        address order raises :class:`~repro.cxl.device.PoisonedMemoryError`
        from the media.
        """
        return self._read_runs(addr, size, self.extents(addr, size))

    def _read_runs(self, addr: int, size: int, runs: list) -> bytes:
        """:meth:`pool_read` over the span's ``runs`` (:meth:`extents`)."""
        for mhd_idx, _media, _dev, _size in runs:
            self.mhds[mhd_idx].check_alive()
        if len(runs) > 1 and any(media._poisoned(dev, length)
                                 for _idx, media, dev, length in runs):
            # Poison on the run the span touches first can lie after
            # poison on another: read line by line, in address order.
            return b"".join([media.read(dev, length) for
                             _pos, length, _idx, media, dev
                             in self._line_walk(addr, size)])
        return self._scatter(addr, [media.read(dev, length)
                                    for _idx, media, dev, length in runs])

    def pool_write(self, addr: int, data: bytes) -> None:
        """Write pool bytes directly to the media (no cache, no timing).

        Atomic with respect to MHD failure: every run's device is
        health-checked *before* the first byte lands, so a write to a pod
        with a dead MHD in its stripe fails cleanly with zero bytes
        written.  If a run write still fails mid-loop (defensive), the
        tear is reported explicitly as :class:`PartialPoolWriteError`
        rather than surfacing as a silent partial update.  Line watches
        fire in address order: a span over several MHDs with a watched
        line is written line by line.
        """
        self._write_runs(addr, data, self.extents(addr, len(data)))

    def _write_runs(self, addr: int, data: bytes, runs: list) -> None:
        """:meth:`pool_write` over the span's ``runs`` (:meth:`extents`)."""
        size = len(data)
        for mhd_idx, _media, _dev, _size in runs:
            self.mhds[mhd_idx].check_alive()
        if len(runs) > 1 and any(media._watched(dev, length)
                                 for _idx, media, dev, length in runs):
            gran = self.config.interleave_bytes
            for pos, length, mhd_idx, media, dev in self._line_walk(addr,
                                                                    size):
                try:
                    if pos == 0 or dev % gran == 0:
                        # An interleave block starts: check its MHD.
                        self.mhds[mhd_idx].check_alive()
                    media.write(dev, data[pos:pos + length])
                except LinkDownError as exc:
                    raise PartialPoolWriteError(addr, pos, size) from exc
            return
        pos = 0
        for (mhd_idx, media, dev, length), share in zip(
                runs, self._gather(addr, data, runs, 1, b"".join),
                strict=True):
            try:
                self.mhds[mhd_idx].check_alive()
                media.write(dev, share)
            except LinkDownError as exc:
                raise PartialPoolWriteError(addr, pos, size) from exc
            pos += length

    def _line_walk(self, addr: int, size: int) -> list[tuple]:
        """The span's pieces of 64 B lines in address order, routed:
        ``(pos, length, mhd_index, media, device_addr)``, ``pos`` being
        the piece's offset in the span.  The per-line path of the bulk
        operations, for spans whose order across runs can be observed."""
        end = addr + size
        walk = []
        for base in line_range(addr, size):
            at = max(base, addr)
            mhd_idx, media, dev = self.route(at)
            walk.append((at - addr, min(base + CACHELINE_BYTES, end) - at,
                         mhd_idx, media, dev))
        return walk

    # -- RAS verbs (fault injection & recovery) -------------------------------

    def _mhd(self, index: int) -> MultiHeadedDevice:
        if not 0 <= index < len(self.mhds):
            raise ValueError(
                f"mhd index {index} out of range [0, {len(self.mhds)})"
            )
        return self.mhds[index]

    def fail_mhd(self, index: int) -> None:
        """Crash one MHD: media unreachable from every host."""
        self._mhd(index).fail()

    def repair_mhd(self, index: int) -> None:
        """Bring a crashed MHD back (media contents survive)."""
        self._mhd(index).repair()

    def degrade_mhd(self, index: int, factor: float) -> None:
        """Collapse bandwidth on every link of one MHD."""
        self._mhd(index).degrade(factor)

    def restore_mhd_bandwidth(self, index: int) -> None:
        self._mhd(index).restore_bandwidth()

    def slow_mhd(self, index: int, factor: float) -> None:
        """Fail-slow one MHD: line-op latency multiplies on every head."""
        self._mhd(index).slow(factor)

    def restore_mhd_latency(self, index: int) -> None:
        """End one MHD's fail-slow window."""
        self._mhd(index).restore_latency()

    def avoid_mhd(self, index: int) -> None:
        """Quarantine one MHD from *new* confined placements.

        Unlike :meth:`fail_mhd` the device stays readable — existing
        allocations keep working (slowly) — but :meth:`pick_ras_mhd`
        skips it, so channel rebuilds and fresh placements land on
        healthy failure domains.
        """
        self._mhd(index)
        self._avoid_mhds.add(index)

    def allow_mhd(self, index: int) -> None:
        """Reinstate a quarantined MHD as a placement target."""
        self._avoid_mhds.discard(index)

    @property
    def avoided_mhds(self) -> set[int]:
        return set(self._avoid_mhds)

    def poison(self, addr: int, n_lines: int = 1) -> None:
        """Poison ``n_lines`` consecutive cachelines starting at ``addr``."""
        base = line_base(addr)
        for i in range(n_lines):
            _idx, media, dev_addr = self.route(base + i * CACHELINE_BYTES)
            media.poison(dev_addr)

    @property
    def healthy_mhds(self) -> list[int]:
        return [i for i, mhd in enumerate(self.mhds) if not mhd.failed]

    def ras_probe_addr(self, index: int) -> int:
        """Pod-global address of the first line of one MHD's RAS window.

        Liveness monitors read this line uncached: a healthy device
        answers (a poisoned line still proves the device is alive), a
        crashed one raises through the link layer.
        """
        self._mhd(index)
        return (POOL_BASE + self.interleaved_capacity
                + index * self.ras_window_bytes)

    def ras_counters(self) -> dict[str, int]:
        """Pod-wide RAS accounting, summed over all media."""
        media = [mhd.memory for mhd in self.mhds]
        return {
            "poisons_injected": sum(m.poisons_injected for m in media),
            "poison_reads": sum(m.poison_reads for m in media),
            "poisons_scrubbed": sum(m.poisons_scrubbed for m in media),
            "poisoned_resident": sum(m.poisoned_resident for m in media),
            "mhd_failures": sum(mhd.times_failed for mhd in self.mhds),
            "mhds_down": sum(1 for mhd in self.mhds if mhd.failed),
        }

    # -- allocation -------------------------------------------------------------

    def allocate(self, size: int, owners, label: str = "",
                 mhd_index: int | None = None) -> Allocation:
        """Allocate pool memory.

        The returned allocation's range uses pod-global (POOL_BASE-mapped)
        addresses, directly usable by every owner's memory system.

        With ``mhd_index`` the allocation is *confined* to one MHD's
        direct RAS window instead of being interleaved.  Without it, the
        allocation is interleaved — unless some MHD is currently failed,
        in which case striping would touch dead media, so the allocation
        automatically falls back to a healthy confined window (degraded
        bandwidth, no dependence on the dead device).
        """
        if mhd_index is None and (any(mhd.failed for mhd in self.mhds)
                                  or self._avoid_mhds):
            # A failed MHD makes striping impossible; a gray-quarantined
            # one makes it *slow* — either way new placements confine to
            # a healthy, non-quarantined window.
            mhd_index = self.pick_ras_mhd()
        if mhd_index is not None:
            return self.allocate_confined(size, owners, label, mhd_index)
        inner = self.allocator.allocate(size, owners, label)
        rebased = Allocation(
            AddressRange(inner.range.base + POOL_BASE, inner.range.size),
            inner.owners, inner.label,
        )
        self._inner_allocs[rebased.range.base] = (None, inner)
        self._scrub_on_allocate(rebased.range)
        return rebased

    def allocate_confined(self, size: int, owners, label: str = "",
                          mhd_index: int | None = None) -> Allocation:
        """Allocate from one MHD's direct RAS window (λ-redundant placement).

        ``mhd_index=None`` picks the next healthy MHD round-robin, which
        is how successive channel allocations spread across distinct
        failure domains.
        """
        if mhd_index is None:
            mhd_index = self.pick_ras_mhd()
        self._mhd(mhd_index).check_alive()
        inner = self._ras_allocators[mhd_index].allocate(size, owners, label)
        base = (POOL_BASE + self.interleaved_capacity
                + mhd_index * self.ras_window_bytes + inner.range.base)
        rebased = Allocation(
            AddressRange(base, inner.range.size), inner.owners, inner.label
        )
        self._inner_allocs[base] = (mhd_index, inner)
        self._scrub_on_allocate(rebased.range)
        return rebased

    def _scrub_on_allocate(self, rng: AddressRange) -> None:
        """Zero every line of a fresh allocation (allocation-time scrub).

        Pool memory is recycled across channel rebuilds and vNIC
        rebinds; without scrubbing, a new ring placed over a retired
        one can replay stale-but-CRC-valid slots as fresh messages.
        Clearing also scrubs any poison left in the freed region.  The
        allocator only hands out healthy media (confined windows check
        liveness; interleaving requires every MHD up), so the scrub
        never touches a failed device.
        """
        runs = self.extents(rng.base, rng.size)
        if len(runs) > 1 and any(media._watched(dev, size)
                                 for _idx, media, dev, size in runs):
            # Watches fire in address order, line by line.
            for _pos, size, _idx, media, dev in self._line_walk(rng.base,
                                                               rng.size):
                media.clear_lines(dev, size)
            return
        for _idx, media, dev, size in runs:
            media.clear_lines(dev, size)

    def pick_ras_mhd(self) -> int:
        """Next healthy MHD in round-robin order (λ-redundant spreading).

        Gray-quarantined MHDs (see :meth:`avoid_mhd`) are skipped while
        any non-quarantined healthy device exists; if every healthy MHD
        is quarantined, a slow placement beats no placement and the
        avoid set is ignored.
        """
        n = len(self.mhds)
        for off in range(n):
            idx = (self._ras_rr + off) % n
            if not self.mhds[idx].failed and idx not in self._avoid_mhds:
                self._ras_rr = (idx + 1) % n
                return idx
        for off in range(n):
            idx = (self._ras_rr + off) % n
            if not self.mhds[idx].failed:
                self._ras_rr = (idx + 1) % n
                return idx
        raise AllocationError("all MHDs failed: no healthy failure domain")

    def free(self, alloc: Allocation) -> None:
        """Release pool memory allocated via :meth:`allocate`."""
        entry = self._inner_allocs.pop(alloc.range.base, None)
        if entry is None or entry[1].range.size != alloc.range.size:
            raise ValueError(f"{alloc!r} is not a live pod allocation")
        mhd_index, inner = entry
        if mhd_index is None:
            self.allocator.free(inner)
        else:
            self._ras_allocators[mhd_index].free(inner)

    def allocation_mhds(self, alloc: Allocation) -> set[int]:
        """The MHDs an allocation's bytes live on (its failure domains)."""
        idx = self.mhd_of(alloc.range.base)
        if idx is not None:
            return {idx}
        # Interleaved: striped across every device in the pod.
        return set(range(len(self.mhds)))

    def ras_allocations(self) -> list[tuple[int, AddressRange, str]]:
        """Live confined allocations as ``(mhd_index, pod_range, label)``.

        Deterministically ordered by base address — fault campaigns draw
        poison targets from this list.
        """
        out = []
        for base in sorted(self._inner_allocs):
            mhd_index, inner = self._inner_allocs[base]
            if mhd_index is not None:
                out.append((
                    mhd_index,
                    AddressRange(base, inner.range.size),
                    inner.label,
                ))
        return out

    def __repr__(self) -> str:
        return (
            f"<CxlPod hosts={len(self.hosts)} mhds={len(self.mhds)} "
            f"pool={self.config.pool_capacity >> 30}GiB>"
        )


def _slices(seq, first: int, length: int, step: int) -> list:
    """``seq[i:i + length]`` for ``i`` from ``first`` by ``step`` while
    inside ``seq``, a slice starting before ``seq`` clipped to its start."""
    return [seq[max(i, 0):i + length] for i in range(first, len(seq), step)]
