"""CXL link model: latency, serialization bandwidth, and failures.

A link connects one host port to one CXL device port over the PCIe
physical layer.  Two access classes are modeled:

* **line ops** (64 B loads / NT stores from a CPU) — pay the load-to-use
  or store-visibility latency; their serialization time is negligible but
  is still accounted against the link's byte counters.
* **bulk transfers** (DMA) — book one share per link on the link's FIFO
  of shares (:meth:`CxlLink.book`).  The head share is on the wire for
  ``size / bandwidth``, the bandwidth read when the share is granted (a
  degrade window changes it), and the transfer completes one propagation
  latency after its last share leaves the wire, so concurrent transfers
  queue behind each other exactly like a loaded link.  The link is
  checked when a share is booked, when it is granted and when it leaves
  the wire: a share that meets a down link fails there, and a flap that
  ends before the share leaves the wire goes unseen.

Links can be administratively or faultily taken down; accesses over a dead
link raise :class:`LinkDownError`, which the failover machinery observes.
A parked poller can watch a link (:meth:`CxlLink.watch`) instead of
re-reading over it: the watch fires once, at the next change to how a
line op behaves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cxl.params import DEFAULT_BANDWIDTH, DEFAULT_TIMINGS, CxlTimings
from repro.sim import Event, Simulator, Timeout
from repro.sim.errors import SimError


class LinkDownError(SimError):
    """Raised when an access is attempted over a failed link."""

    def __init__(self, link: "CxlLink"):
        super().__init__(f"link {link.name} is down")
        self.link = link


@dataclass(frozen=True)
class LinkSpec:
    """Static configuration of one CXL link."""

    #: Lane count (x4 / x8 / x16).
    lanes: int = 8
    #: Sustained bandwidth in GB/s (== bytes/ns).  ``None`` looks the value
    #: up from the default table for the lane count.
    bandwidth_gbps: float | None = None

    def resolved_bandwidth(self) -> float:
        if self.bandwidth_gbps is not None:
            return self.bandwidth_gbps
        return DEFAULT_BANDWIDTH.for_width(self.lanes)


class DmaCompletion:
    """One DMA's completion over the link shares its span is split into.

    ``event`` (named ``dma``) fails with the first failed share's
    :class:`LinkDownError`, and later failures are absorbed.  Otherwise
    it succeeds one propagation latency (``prop``) after the last share
    leaves the wire.
    """

    __slots__ = ("event", "shares", "prop")

    def __init__(self, sim: Simulator, shares: int, timings: CxlTimings,
                 write: bool):
        self.event = Event(sim, name="dma")
        self.shares = shares
        # Writes are posted (store-visibility latency); reads pay the
        # full load-to-use round trip.
        self.prop = timings.cxl_store_ns if write else timings.cxl_load_ns

    def _share_done(self) -> None:
        self.shares -= 1
        if not self.shares and not self.event.triggered:
            self.event.succeed(delay=self.prop)

    def _share_failed(self, link: "CxlLink") -> None:
        if not self.event.triggered:
            self.event.fail(LinkDownError(link))


class CxlLink:
    """One host-port ↔ device-port CXL link."""

    def __init__(self, sim: Simulator, spec: LinkSpec = LinkSpec(),
                 timings: CxlTimings = DEFAULT_TIMINGS,
                 name: str = "cxl-link"):
        self.sim = sim
        self.spec = spec
        self.timings = timings
        self.name = name
        #: bytes/ns == GB/s
        self.bandwidth = spec.resolved_bandwidth()
        #: Healthy bandwidth, restored after a degrade window ends.
        self.nominal_bandwidth = self.bandwidth
        #: Booked DMA shares ``(completion, size, write)`` in FIFO order;
        #: the head share is on the wire.
        self._shares: deque = deque()
        self.up = True
        # Telemetry.
        self.bytes_read = 0
        self.bytes_written = 0
        self.line_ops = 0
        self.bulk_ops = 0
        self.times_failed = 0
        self.times_degraded = 0
        self.downtime_ns = 0.0
        self._down_since: float | None = None
        #: Fail-slow media latency multiplier (>= 1): the link stays up
        #: and correct, every line op just takes ``slow_factor`` times
        #: longer — the MhdSlow gray-failure mode.
        self.slow_factor = 1.0
        self.times_slowed = 0
        #: Fail-slow per-op jitter (LinkDegrade): each line op pays an
        #: extra uniform(0, jitter_ns) draw from ``_jitter_rng``.
        self.jitter_ns = 0.0
        self._jitter_rng = None
        self.times_jittered = 0
        #: One-shot watches run at the next change to how a line op
        #: behaves (see :meth:`watch`).
        self._watchers: list = []

    # -- watches -----------------------------------------------------------

    def watch(self, fn) -> None:
        """Run ``fn()`` once, at the next change to how a line op over
        this link behaves: it fails or is restored, or its fail-slow
        latency or jitter is set or cleared (bandwidth changes only
        touch bulk transfers, so they do not fire it)."""
        self._watchers.append(fn)

    def unwatch(self, fn) -> None:
        """Withdraw a watch that has not fired (no-op if it has)."""
        if fn in self._watchers:
            self._watchers.remove(fn)

    def _changed(self) -> None:
        fns, self._watchers = self._watchers, []
        for fn in fns:
            fn()

    # -- health ----------------------------------------------------------

    def fail(self) -> None:
        """Take the link down (fault injection)."""
        if self.up:
            self.times_failed += 1
            self._down_since = self.sim.now
        self.up = False
        self._changed()

    def restore(self) -> None:
        """Bring the link back up."""
        if not self.up and self._down_since is not None:
            self.downtime_ns += self.sim.now - self._down_since
            self._down_since = None
        self.up = True
        self._changed()

    def degrade(self, factor: float) -> None:
        """Collapse the link's bandwidth to ``factor`` of nominal.

        Models a retrained-at-lower-width or error-throttled link: the
        link stays *up* (loads and stores succeed), but bulk transfers
        serialize against the reduced bandwidth.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degrade factor must be in (0, 1], got {factor}")
        if self.bandwidth == self.nominal_bandwidth and factor < 1.0:
            self.times_degraded += 1
        self.bandwidth = self.nominal_bandwidth * factor

    def restore_bandwidth(self) -> None:
        """End a degrade window: back to nominal bandwidth."""
        self.bandwidth = self.nominal_bandwidth

    @property
    def degraded(self) -> bool:
        return self.bandwidth < self.nominal_bandwidth

    def slow(self, factor: float) -> None:
        """Fail-slow: multiply every line-op latency by ``factor``.

        The link stays up and lossless — the gray-failure mode crash
        detectors cannot see.  Bulk bandwidth is untouched (that is what
        :meth:`degrade` models); line ops are what rings, probes, and CQ
        polls ride on, so this is the latency signal health scoring
        must catch.
        """
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        if self.slow_factor == 1.0 and factor > 1.0:
            self.times_slowed += 1
        self.slow_factor = factor
        self._changed()

    def restore_latency(self) -> None:
        """End a fail-slow window: line ops back to nominal latency."""
        self.slow_factor = 1.0
        self._changed()

    @property
    def slowed(self) -> bool:
        return self.slow_factor > 1.0

    def set_jitter(self, jitter_ns: float, rng) -> None:
        """Fail-slow: add uniform(0, ``jitter_ns``) to every line op.

        ``rng`` must be a dedicated named stream so the per-op draws
        stay deterministic without perturbing any schedule RNG.
        """
        if jitter_ns < 0.0:
            raise ValueError(f"jitter must be >= 0, got {jitter_ns}")
        if self.jitter_ns == 0.0 and jitter_ns > 0.0:
            self.times_jittered += 1
        self.jitter_ns = jitter_ns
        self._jitter_rng = rng
        self._changed()

    def clear_jitter(self) -> None:
        """End a jitter window."""
        self.jitter_ns = 0.0
        self._jitter_rng = None
        self._changed()

    def _line_extra_ns(self) -> float:
        """Fail-slow additions to one line op's latency."""
        if self.jitter_ns > 0.0 and self._jitter_rng is not None:
            return float(self._jitter_rng.uniform(0.0, self.jitter_ns))
        return 0.0

    def _check_up(self) -> None:
        if not self.up:
            raise LinkDownError(self)

    # -- latency-only line operations -------------------------------------

    def load_latency(self) -> float:
        """Load-to-use latency of one cacheline read over this link."""
        self._check_up()
        self.line_ops += 1
        self.bytes_read += 64
        return (self.timings.cxl_load_ns * self.slow_factor
                + self._line_extra_ns())

    def store_latency(self) -> float:
        """Visibility latency of one non-temporal cacheline store."""
        self._check_up()
        self.line_ops += 1
        self.bytes_written += 64
        return (self.timings.cxl_store_ns * self.slow_factor
                + self._line_extra_ns())

    # -- bulk transfers ----------------------------------------------------

    def book(self, done: DmaCompletion, size: int, write: bool) -> None:
        """Queue a ``size``-byte share of DMA ``done`` behind earlier ones.

        A share booked on a down link fails ``done`` at once.
        """
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        if not self.up:
            done._share_failed(self)
            return
        shares = self._shares
        shares.append((done, size, write))
        if len(shares) == 1:
            self._grant()

    def transfer(self, size: int, write: bool):
        """Process: move ``size`` bytes over the link (DMA semantics).

        Books one share and yields until it completes.  Serialization
        queues FIFO behind other bulk transfers; propagation latency is
        added once at the end.
        """
        done = DmaCompletion(self.sim, 1, self.timings, write)
        self.book(done, size, write)
        yield done.event

    def _grant(self) -> None:
        """Put the head share on the wire; a down link fails it instead."""
        shares = self._shares
        while shares:
            if self.up:
                wire = Timeout(self.sim, shares[0][1] / self.bandwidth,
                               name="dma-wire")
                wire.callbacks.append(self._off_wire)
                return
            shares.popleft()[0]._share_failed(self)

    def _off_wire(self, _wire: Timeout) -> None:
        done, size, write = self._shares.popleft()
        if self.up:
            self.bulk_ops += 1
            if write:
                self.bytes_written += size
            else:
                self.bytes_read += size
            done._share_done()
        else:
            done._share_failed(self)
        self._grant()

    # -- telemetry ---------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return (
            f"<CxlLink {self.name!r} x{self.spec.lanes} "
            f"{self.bandwidth:.0f}GB/s {state}>"
        )
