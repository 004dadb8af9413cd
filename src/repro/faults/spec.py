"""Declarative fault descriptions.

A fault spec says *what* breaks and *when*; the
:class:`~repro.faults.injector.FaultInjector` owns *how*.  All specs are
frozen dataclasses so schedules are hashable, comparable, and printable —
a chaos campaign is fully described by its spec list.

Times are absolute simulation timestamps (ns).  ``*_after_ns`` delays are
relative to the fault's own ``at_ns``; ``None`` means "never", i.e. the
fault is permanent for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class DeviceCrash:
    """A PCIe device stops responding; optionally repaired later."""

    device_id: int
    at_ns: float
    repair_after_ns: Optional[float] = None


@dataclass(frozen=True)
class DeviceFlap:
    """A short device outage: fail at ``at_ns``, repair ``down_ns`` later."""

    device_id: int
    at_ns: float
    down_ns: float


@dataclass(frozen=True)
class LinkFlap:
    """A CXL link outage on one host port.

    ``link_index`` selects one of the host's MHD links; ``None`` takes
    every link of the port down (the host is cut off from pool memory
    entirely — rings, DMA buffers, everything).
    """

    host_id: str
    at_ns: float
    down_ns: float
    link_index: Optional[int] = None


@dataclass(frozen=True)
class AgentCrash:
    """The pooling-agent daemon on a host dies, losing its soft state."""

    host_id: str
    at_ns: float
    restart_after_ns: Optional[float] = None


@dataclass(frozen=True)
class OrchestratorCrash:
    """The orchestrator process dies; restarted ``restart_after_ns`` later.

    A permanent orchestrator loss (``restart_after_ns=None``) leaves the
    pool running headless: existing datapaths keep working, but no new
    failovers happen.
    """

    at_ns: float
    restart_after_ns: Optional[float] = None


@dataclass(frozen=True)
class MhdCrash:
    """A whole multi-headed device dies: every head link drops at once.

    This is the paper's worst memory-side failure — all channels, rings,
    and DMA buffers resident on that MHD become unreachable.  With λ ≥ 1
    spare failure domains the control plane must rebuild them on healthy
    media; ``repair_after_ns=None`` keeps the device dead forever.
    """

    mhd_index: int
    at_ns: float
    repair_after_ns: Optional[float] = None


@dataclass(frozen=True)
class MhdDegrade:
    """Link-level bandwidth collapse on one MHD (thermal throttle,
    retraining to fewer lanes).  Data stays reachable but slow; restored
    to nominal ``down_ns`` later."""

    mhd_index: int
    at_ns: float
    down_ns: float
    bandwidth_factor: float = 0.1


@dataclass(frozen=True)
class HostPartition:
    """Control-plane partition: the host's control ring goes silent.

    Heartbeats, announces, and lease renewals stop in *both* directions
    while the datapath (device channels, pool memory) stays healthy —
    the classic split-brain setup the lease fencing layer exists for.
    Healed ``down_ns`` later.
    """

    host_id: str
    at_ns: float
    down_ns: float


@dataclass(frozen=True)
class LeaseExpire:
    """Force one device's ownership lease to expire immediately.

    Models a lost renewal burst without any transport fault: the owner
    steps down (self-fences) and the orchestrator runs its lease-expiry
    failover, exactly as if renewals had silently stalled past the TTL.
    """

    device_id: int
    at_ns: float


@dataclass(frozen=True)
class MemPoison:
    """Uncorrectable media error: ``n_lines`` cachelines at ``addr``
    are marked poisoned.  Reads of a poisoned line raise; any write
    scrubs it.  The integrity layer must detect every hit."""

    addr: int
    at_ns: float
    n_lines: int = 1


@dataclass(frozen=True)
class MhdSlow:
    """Fail-slow media: one MHD's line-op latency multiplies.

    The gray failure crash detectors cannot see — every head link stays
    up and every access succeeds, just ``latency_factor`` slower.  Only
    peer-relative latency scoring (see :mod:`repro.health`) catches it.
    Restored to nominal ``down_ns`` later.
    """

    mhd_index: int
    at_ns: float
    down_ns: float
    latency_factor: float = 10.0


@dataclass(frozen=True)
class LinkDegrade:
    """Fail-slow link: per-message latency jitter on one host port.

    Models a flaky cable retrying at the physical layer — every line op
    over the link pays an extra uniform(0, ``jitter_ns``) draw from a
    dedicated RNG stream.  ``link_index=None`` jitters every link of the
    port.  Cleared ``down_ns`` later.
    """

    host_id: str
    at_ns: float
    down_ns: float
    jitter_ns: float = 2_000.0
    link_index: Optional[int] = None


@dataclass(frozen=True)
class AgentStall:
    """Gray agent: heartbeats and lease renewals continue, work doesn't.

    The pooling agent keeps its liveness traffic flowing (so neither the
    heartbeat timeout nor lease expiry fires) but stops probing and
    reporting its devices — the classic stuck-worker-thread failure.
    Only work-silence detection (fresh heartbeat, stale load reports)
    catches it.  Unstalled ``down_ns`` later.
    """

    host_id: str
    at_ns: float
    down_ns: float


@dataclass(frozen=True)
class OverloadStorm:
    """Open-loop overload: flood one borrower->device forwarding path.

    ``depth`` storm clients hammer forwarded register reads for
    ``duration_ns`` without closed-loop pacing — a misbehaving tenant or
    retry stampede.  Nothing breaks: the fault is that *demand* exceeds
    capacity, and the overload-control stack (admission nacks, retry
    budgets, AIMD pacing, brownout shedding) must keep goodput up and
    must not let the pressure masquerade as device/owner failure.
    """

    borrower_host: str
    device_id: int
    at_ns: float
    duration_ns: float
    depth: int = 32


@dataclass(frozen=True)
class OwnerKill:
    """The owner of a borrower's device dies mid-I/O, all at once.

    Aimed at fire time, since earlier faults may already have moved the
    assignment: the device is the one behind ``borrower_host``'s
    assignment of ``device_kind`` (``"nic"``, ``"ssd"`` or
    ``"accelerator"``).  Its owner host is partitioned for
    ``down_ns``, its agent crashes and the device crashes, all in the
    same instant, so the only detection path left is the lease lapsing
    on the shared clock.  The agent and the device stay dead.
    """

    borrower_host: str
    device_kind: str
    at_ns: float
    down_ns: float


Fault = Union[DeviceCrash, DeviceFlap, LinkFlap, AgentCrash,
              OrchestratorCrash, MhdCrash, MhdDegrade, MemPoison,
              HostPartition, LeaseExpire, MhdSlow, LinkDegrade,
              AgentStall, OverloadStorm, OwnerKill]


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered bundle of faults to inject in one run."""

    faults: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))

    def sorted(self) -> tuple:
        """Faults by start time (stable for equal timestamps)."""
        return tuple(sorted(self.faults, key=lambda f: f.at_ns))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:
        kinds: dict[str, int] = {}
        for f in self.faults:
            kinds[type(f).__name__] = kinds.get(type(f).__name__, 0) + 1
        body = " ".join(f"{k}x{v}" for k, v in sorted(kinds.items()))
        return f"<FaultSchedule {len(self.faults)} faults: {body}>"
