"""Timing and bandwidth parameters for the memory hierarchy.

All latency constants are in nanoseconds and derive from the measurements
the paper cites:

* Local DDR5 idle load-to-use ≈ 95 ns (typical two-socket server DRAM).
* CXL idle load-to-use ≈ 2.15× local DDR5 on an Astera Leo controller
  behind a PCIe-5.0 link [Sharma'24, Sun'23] → ≈ 204 ns.
* A PCIe-5.0 x8 CXL link sustains ≈ 30 GB/s at a 2:1 read:write mix —
  comparable to one DDR5-4800 channel (§3).

The paper's Figure 4 notes the ring-channel median (~600 ns) sits slightly
above the theoretical floor of one CXL write plus one CXL read; the
``cpu_issue_ns`` and receiver polling interval (see
:mod:`repro.channel.ring`) supply that "slightly above" gap in our model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CxlTimings:
    """Latency constants (ns) for local DDR5 and pooled CXL memory."""

    #: Idle load-to-use latency of local DDR5.
    ddr5_load_ns: float = 95.0
    #: DDR5 store (write into the local memory controller write queue).
    ddr5_store_ns: float = 80.0
    #: Multiplier for CXL idle load-to-use over local DDR5 (measured 2.15x).
    cxl_latency_multiplier: float = 2.15
    #: One-way propagation share of a CXL access.  A load pays the full
    #: load-to-use latency; a posted (non-temporal) store pays roughly the
    #: one-way cost before the data is globally visible at the device.
    cxl_store_fraction: float = 1.0
    #: Fixed CPU cost to issue a load/store (address generation, store
    #: buffer drain for NT stores).
    cpu_issue_ns: float = 10.0
    #: Cost of an ``sfence`` draining write-combining buffers.  Note this
    #: orders stores; it does not wait for device-side visibility — the
    #: doorbell MMIO plus the device's descriptor fetch cover that window.
    sfence_ns: float = 30.0
    #: L1/L2 hit latency for cached lines.
    cache_hit_ns: float = 4.0
    #: Local DRAM bandwidth per host (one DDR5-4800 channel pair), bytes/ns
    #: (= GB/s when expressed per ns).
    ddr5_bandwidth_gbps: float = 60.0

    @property
    def cxl_load_ns(self) -> float:
        """Idle CXL load-to-use latency (ns)."""
        return self.ddr5_load_ns * self.cxl_latency_multiplier

    @property
    def cxl_store_ns(self) -> float:
        """Latency until an NT store is visible at the CXL device (ns)."""
        return self.cxl_load_ns * self.cxl_store_fraction

    @property
    def message_floor_ns(self) -> float:
        """Theoretical message-passing floor: one CXL write + one read."""
        return self.cxl_store_ns + self.cxl_load_ns


#: Default timing model used throughout the repository.
DEFAULT_TIMINGS = CxlTimings()


# -- channel tuning knobs ----------------------------------------------------
#
# The polling/backoff cadences below used to be magic literals scattered
# across ring.py, rpc.py, and netstack.py.  They are calibration
# constants, not physics: the CPU work between receive polls, how hard a
# sender hammers a full ring, and how long software backs off when the
# CXL path under a channel flaps.

#: CPU work between receive polls on a busy-polled datapath channel
#: (branch + slot parse on top of the CXL read itself).  This is the
#: receiver-side half of Figure 4's "slightly above the floor" gap.
RECV_POLL_NS = 30.0

#: Sender-side poll cadence while a ring is full (progress-line watch).
RING_FULL_POLL_NS = 50.0

#: Backoff between retries when the CXL path under a channel is down
#: (link flap / MHD failover window).  Used by ring senders re-storing a
#: reserved slot, the RPC retry/backoff ladders, and netstack fault
#: paths — one knob, so recovery traffic stays mutually paced.
LINK_RETRY_POLL_NS = 100_000.0


# -- robustness knobs --------------------------------------------------------
#
# Control-plane liveness and gray-failure constants.  Ordering matters
# more than the absolute values: lease TTL < heartbeat timeout (the lease
# path must detect a dead owner first), work-silence timeout >= several
# agent report intervals (one missed report is noise, five is a stall),
# and hedge deadlines sit well under the op-timeout watchdogs so a hedge
# fires long before the failover hammer does.

#: Silence past this marks an agent (and its host's devices) dead.
HEARTBEAT_TIMEOUT_NS = 50_000_000.0

#: Orchestrator monitor sweep cadence (lease expiry, stale agents,
#: pending repairs, rebalancing).
MONITOR_CHECK_INTERVAL_NS = 10_000_000.0

#: Pool-side MHD liveness/latency probe cadence.
MHD_PROBE_INTERVAL_NS = 10_000_000.0

#: Lease term and successor-start grace (mirrored from
#: repro.orchestrator.lease so every robustness constant reads from one
#: table; the lease module remains the source of truth).
LEASE_TTL_NS = 30_000_000.0
LEASE_GRACE_NS = 5_000_000.0

#: An agent whose heartbeats stay fresh but whose devices report nothing
#: for this long is *stalled* (gray): heartbeating, not working.  Five
#: agent report intervals — one lost report is transport noise.
WORK_SILENCE_TIMEOUT_NS = 50_000_000.0

#: Datapath hedge deadline: an op outstanding this long gets its
#: doorbell re-rung against the freshest owner resolution.  An order of
#: magnitude under the 200 ms op-timeout watchdog, so hedges run (and
#: usually win) long before the failover hammer.
HEDGE_DEADLINE_NS = 20_000_000.0

#: Netstack TX hedge deadline: no TX completion progress for this long
#: with frames journaled re-rings the TX doorbell.
HEDGE_TX_DEADLINE_NS = 10_000_000.0

#: Consecutive hedges without an intervening completion before the
#: hedger stands down and leaves recovery to the watchdog/failover.
HEDGE_STREAK_LIMIT = 8

#: Consecutive fence kicks (doorbells re-rung after a fence nack)
#: without an intervening completion before the client stops kicking: a
#: device that genuinely moved is left to the watchdog/failover.
FENCE_KICK_STREAK_LIMIT = 8

#: Server-side op-dedup journal depth (per borrower channel).  Must
#: comfortably exceed the deepest client queue (64 entries) times the
#: hedge amplification, or hedged retries could outrun dedup.
JOURNAL_CAP_DEFAULT = 512

#: Health scoring (see repro.health): rolling window length per
#: component, samples required before a verdict, peer-relative outlier
#: factor (gray when p99 > factor x median of peers' p99), an absolute
#: floor below which nothing is gray, and the hysteresis depths —
#: consecutive gray assessments to demote, consecutive clean ones on
#: probation to reinstate.
HEALTH_WINDOW = 32
HEALTH_MIN_SAMPLES = 8
HEALTH_OUTLIER_FACTOR = 3.0
HEALTH_FLOOR_NS = 1_000.0
HEALTH_GRAY_TICKS = 3
HEALTH_PROBATION_TICKS = 8


# -- overload-control knobs --------------------------------------------------
#
# Admission, retry-budget, pacing, and brownout constants (see
# repro.health.overload and DESIGN.md §12).  Ordering again matters more
# than the absolute values: the busy-nack retry-after must exceed the
# ring-full poll cadence (a nacked client must not out-spin the ring
# watch), the retry-budget refill ratio is the classic ~10%-of-goodput
# rule, and the AIMD window *starts at its ceiling* so the uncontended
# fast path is untouched until the first pressure signal arrives.

#: Per-borrower-queue in-flight cap at a DeviceServer.  Ops beyond this
#: are busy-nacked instead of queueing silently behind the channel.
ADMISSION_MAX_INFLIGHT = 64

#: Retry-after hint carried on a busy nack.  Several ring-full polls —
#: long enough for the server to drain, short enough that an admitted
#: retry lands within the same scheduling epoch.
ADMISSION_RETRY_AFTER_NS = 200_000.0

#: Busy-nack retries a client absorbs (paced by the retry-after hint)
#: before surfacing a typed OverloadError to the caller.
OVERLOAD_RETRY_LIMIT = 8

#: Retry-budget token bucket: refill fraction per successful op (~10% of
#: goodput funds retries/hedges/replays), bucket depth, and the level
#: below which hedging is suppressed (hedges are an optimization; paying
#: the last tokens for them starves correctness-critical replays).
RETRY_BUDGET_RATIO = 0.1
RETRY_BUDGET_BURST = 32.0
RETRY_BUDGET_HEDGE_MIN = 4.0

#: AIMD submission window: bounds, additive increase per clean
#: completion, multiplicative decrease on a pressure signal, the CQ/nack
#: occupancy (permille) that counts as pressure, and the cooldown
#: between decreases (one congestion event must not collapse the window
#: once per completion it marked).
AIMD_WINDOW_MIN = 2.0
AIMD_WINDOW_MAX = 64.0
AIMD_INCREASE = 1.0
AIMD_DECREASE_FACTOR = 0.5
AIMD_PRESSURE_PERMILLE = 750
AIMD_DECREASE_COOLDOWN_NS = 1_000_000.0

#: Brownout ladder (0 = normal, 1 = shed background, 2 = demote bursts):
#: evaluation cadence, the pressure that climbs one rung, the pressure
#: below which a descent *tick* is earned, consecutive calm ticks to
#: descend one rung (hysteresis), and the probe-pacing stretch applied
#: at level >= 1.
BROWNOUT_TICK_NS = 5_000_000.0
BROWNOUT_ENTER_PRESSURE = 0.5
BROWNOUT_EXIT_PRESSURE = 0.125
BROWNOUT_CALM_TICKS = 4
BROWNOUT_PROBE_STRETCH = 4.0
#: Overload events (admission rejects + budget denials + ring
#: saturations) per brownout tick that map to pressure 1.0.
BROWNOUT_PRESSURE_NORM = 50.0


@dataclass(frozen=True)
class BandwidthTable:
    """Per-link-width sustained CXL bandwidth (GB/s at 2:1 read:write)."""

    by_width: dict[int, float] = field(
        default_factory=lambda: {4: 15.0, 8: 30.0, 16: 60.0}
    )

    def for_width(self, lanes: int) -> float:
        if lanes not in self.by_width:
            raise ValueError(
                f"unsupported link width x{lanes}; "
                f"known: {sorted(self.by_width)}"
            )
        return self.by_width[lanes]


DEFAULT_BANDWIDTH = BandwidthTable()
