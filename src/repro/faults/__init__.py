"""Deterministic fault injection for the pool (chaos engineering).

The subsystem has three layers:

* :mod:`repro.faults.spec` — declarative fault descriptions
  (:class:`DeviceCrash`, :class:`LinkFlap`, :class:`AgentCrash`, ...)
  bundled into a :class:`FaultSchedule`;
* :mod:`repro.faults.injector` — :class:`FaultInjector` applies a
  schedule to a live :class:`~repro.core.PciePool` on the simulation
  clock, recording everything it does in a :class:`FaultLog`;
* :mod:`repro.faults.campaign` — :class:`ChaosCampaign` draws a random
  (but seeded, hence reproducible) schedule for soak testing.

Faults act on the *hardware* models only — devices, links, daemon
processes.  Recovery must come from the control plane's own self-healing
machinery (retry, heartbeat failover, pending-repair queue, resync),
which is exactly what the chaos tests assert.
"""

from repro.faults.campaign import ChaosCampaign, ChaosConfig
from repro.faults.injector import FaultInjector
from repro.faults.log import FaultEvent, FaultLog
from repro.faults.spec import (
    AgentCrash,
    AgentStall,
    DeviceCrash,
    DeviceFlap,
    FaultSchedule,
    HostPartition,
    LeaseExpire,
    LinkDegrade,
    LinkFlap,
    MemPoison,
    MhdCrash,
    MhdDegrade,
    MhdSlow,
    OrchestratorCrash,
    OverloadStorm,
    OwnerKill,
)

__all__ = [
    "AgentCrash",
    "AgentStall",
    "ChaosCampaign",
    "ChaosConfig",
    "DeviceCrash",
    "DeviceFlap",
    "FaultEvent",
    "FaultInjector",
    "FaultLog",
    "FaultSchedule",
    "HostPartition",
    "LeaseExpire",
    "LinkDegrade",
    "LinkFlap",
    "MemPoison",
    "MhdCrash",
    "MhdDegrade",
    "MhdSlow",
    "OrchestratorCrash",
    "OverloadStorm",
    "OwnerKill",
]
