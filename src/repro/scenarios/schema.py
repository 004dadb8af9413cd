"""Declarative runbook schema: pod shape x workload x chaos x policy.

A *runbook* is a dict (usually a checked-in JSON file) that describes a
whole family of soak scenarios: one ``base`` scenario plus named *axes*
whose values are patches over the base.  The cross product of every
axis value and every seed is the runbook's *matrix*; each cell is one
fully-specified, deterministic simulation (see
:mod:`repro.scenarios.runner`).

Everything here is plain dataclasses over plain dicts — no schema
library, no new dependencies.  Loading is strict: an unknown key is a
:class:`RunbookError`, not a silently-ignored typo (a chaos campaign
whose ``agent_stalls`` was spelled ``agent_stals`` must not pass by
injecting nothing).

The checked-in runbooks (``runbooks/``) are the repo's soaks: chaos,
gray, overload, lease and ras.  An expect compares a summary key with a
constant, or — a *relative* expect — with ``times`` x a key of the
same-seed cell that differs only in one axis value, so a gate like
"goodput >= 80% of calibrated capacity" needs no hard-coded capacity.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.faults.campaign import ChaosConfig
from repro.faults import spec as _fault_spec

#: Directory of checked-in runbooks shipped with the package.
RUNBOOK_DIR = pathlib.Path(__file__).resolve().parent / "runbooks"

#: Fault kinds an explicit campaign entry may name.
FAULT_KINDS = {
    cls.__name__: cls
    for cls in (
        _fault_spec.DeviceCrash, _fault_spec.DeviceFlap,
        _fault_spec.LinkFlap, _fault_spec.AgentCrash,
        _fault_spec.OrchestratorCrash, _fault_spec.MhdCrash,
        _fault_spec.MhdDegrade, _fault_spec.MemPoison,
        _fault_spec.HostPartition, _fault_spec.LeaseExpire,
        _fault_spec.MhdSlow, _fault_spec.LinkDegrade,
        _fault_spec.AgentStall, _fault_spec.OverloadStorm,
        _fault_spec.OwnerKill,
    )
}

_EXPECT_OPS = ("==", "!=", ">=", "<=", ">", "<")

#: The fields of a relative expect's reference: compare against ``times``
#: x summary ``key`` of the same-seed cell whose ``axis`` is ``value``.
_RELATIVE_FIELDS = ("axis", "value", "key", "times")


class RunbookError(ValueError):
    """A runbook or scenario dict failed validation."""


def _check_keys(what: str, d: dict, allowed) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise RunbookError(
            f"{what}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _dataclass_from(what: str, cls, d: dict):
    """Build ``cls`` from a dict, rejecting unknown keys."""
    if not isinstance(d, dict):
        raise RunbookError(f"{what}: expected an object, got {d!r}")
    allowed = {f.name for f in fields(cls)}
    _check_keys(what, d, allowed)
    return cls(**d)


def merge(base: dict, patch: dict) -> dict:
    """Deep-merge ``patch`` over ``base`` (dicts recurse, lists replace).

    Lists replace wholesale: an axis value that patches ``workloads``
    states the complete workload list for that cell — element-wise list
    merging would make patches depend on base ordering, which is exactly
    the kind of spooky coupling a declarative schema exists to avoid.
    """
    out = dict(base)
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


# -- scenario axes ----------------------------------------------------------

@dataclass(frozen=True)
class DeviceMix:
    """``count`` devices of one kind on one owner host."""

    kind: str                       # "nic" | "ssd" | "accelerator"
    owner: str                      # e.g. "h0"
    count: int = 1
    spec: dict = field(default_factory=dict)   # Spec-dataclass overrides

    def __post_init__(self):
        if self.kind not in ("nic", "ssd", "accelerator"):
            raise RunbookError(f"device kind {self.kind!r} unknown")
        if self.count < 1:
            raise RunbookError(f"device count {self.count} < 1")


@dataclass(frozen=True)
class PodShape:
    """Topology of the cell's pod: hosts, MHDs (λ), device mix."""

    n_hosts: int = 4
    n_mhds: int = 2
    ctl_poll_ns: float = 200_000.0       # soak-relaxed cadences by default
    dev_poll_ns: float = 50_000.0
    devices: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(
            d if isinstance(d, DeviceMix)
            else _dataclass_from("pod.devices[]", DeviceMix, d)
            for d in self.devices))


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic driver: closed/open-loop vssd/vaccel, or netstack.

    ``phase`` places the driver on the cell timeline: ``during`` runs
    concurrently with the chaos campaign; ``after`` runs once the
    campaign window (including its settle tail) has passed — the
    "still passes traffic afterwards" probe of the chaos soak.
    """

    driver: str                     # "vssd" | "vaccel" | "netstack"
    host: str
    mode: str = "closed"            # "closed" | "open"
    phase: str = "during"           # "during" | "after"
    ops: int = 100                  # closed-loop op count
    gap_ns: float = 0.0             # closed-loop inter-op think time
    io_bytes: int = 4096
    max_io_bytes: Optional[int] = None   # vssd client ceiling
    rate_per_s: float = 0.0         # open-loop arrival rate (ops / sim-s)
    duration_ns: float = 0.0        # open-loop arrival window
    queue_limit: int = 96           # open-loop client-edge shed threshold
    peer: Optional[str] = None      # netstack: destination host

    def __post_init__(self):
        if self.driver not in ("vssd", "vaccel", "netstack"):
            raise RunbookError(f"workload driver {self.driver!r} unknown")
        if self.mode not in ("closed", "open"):
            raise RunbookError(f"workload mode {self.mode!r} unknown")
        if self.phase not in ("during", "after"):
            raise RunbookError(f"workload phase {self.phase!r} unknown")
        if self.driver == "netstack":
            if not self.peer:
                raise RunbookError("netstack workload needs a peer host")
            if self.phase != "after":
                raise RunbookError(
                    "netstack workloads run phase='after' (post-chaos "
                    "traffic probe); in-campaign datagram drivers would "
                    "block on downed links mid-send")
        if self.mode == "open":
            if self.driver != "vssd":
                raise RunbookError("open-loop mode is vssd-only")
            if self.rate_per_s <= 0 or self.duration_ns <= 0:
                raise RunbookError(
                    "open-loop workload needs rate_per_s and duration_ns")


@dataclass(frozen=True)
class CampaignSpec:
    """The cell's chaos: drawn campaign + explicitly pinned faults.

    ``config`` holds :class:`~repro.faults.ChaosConfig` overrides for
    the seeded draw (prefix-stable stream order, see faults/campaign.py);
    ``faults`` pins additional fault dicts at absolute times — the
    hand-composed adversarial faults the gray and overload soaks use.
    A fault dict is ``{"kind": <spec class name>, ...spec fields}``;
    device-targeting kinds may give ``device`` (an index into the pod's
    device list) instead of a raw ``device_id``.
    """

    stream: str = "chaos"
    config: dict = field(default_factory=dict)
    faults: tuple = ()

    def __post_init__(self):
        allowed = {f.name for f in fields(ChaosConfig)}
        _check_keys("campaign.config", self.config, allowed)
        object.__setattr__(self, "faults", tuple(self.faults))
        for fd in self.faults:
            if not isinstance(fd, dict) or "kind" not in fd:
                raise RunbookError(f"campaign fault {fd!r} needs a 'kind'")
            kind = fd["kind"]
            if kind not in FAULT_KINDS:
                raise RunbookError(f"fault kind {kind!r} unknown")
            spec_fields = {f.name for f in fields(FAULT_KINDS[kind])}
            spec_fields.add("kind")
            if "device_id" in spec_fields:
                spec_fields.add("device")
            _check_keys(f"campaign fault {kind}", fd, spec_fields)

    def chaos_config(self, duration_ns: float) -> ChaosConfig:
        cfg = dict(self.config)
        cfg.setdefault("duration_ns", duration_ns)
        return ChaosConfig(**cfg)

    def draws_anything(self) -> bool:
        counts = ("device_flaps", "link_flaps", "agent_crashes",
                  "orchestrator_restarts", "mhd_crashes", "mhd_degrades",
                  "mem_poisons", "host_partitions", "lease_expires",
                  "mhd_slows", "link_degrades", "agent_stalls",
                  "overload_storms")
        # Counts the config leaves unset fall back to ChaosConfig
        # defaults, some of which are non-zero — so an *empty* config
        # draws the default campaign, as the chaos soak expects.
        defaults = ChaosConfig()
        return any(int(self.config.get(c, getattr(defaults, c))) > 0
                   for c in counts)


@dataclass(frozen=True)
class PathCap:
    """Admission cap for one borrower->device forwarding path."""

    borrower: str
    device: int                     # index into the pod's device list
    cap: int


@dataclass(frozen=True)
class PolicySpec:
    """Control-plane knobs: leases, journaling, placement, admission."""

    lease_ttl_ns: Optional[float] = None
    lease_grace_ns: Optional[float] = None
    journal_cap: Optional[int] = None
    rebalance_spread: Optional[float] = None
    path_caps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "path_caps", tuple(
            pc if isinstance(pc, PathCap)
            else _dataclass_from("policy.path_caps[]", PathCap, pc)
            for pc in self.path_caps))


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified cell: everything a deterministic run needs."""

    pod: PodShape
    workloads: tuple
    campaign: CampaignSpec
    policy: PolicySpec
    duration_ns: float
    settle_ns: float = 0.0          # post-campaign drain before audits
    audit_interval_ns: float = 2_000_000.0
    invariants: tuple = ()          # () = every registered auditor
    #: ((key, op, value), ...); a dict value is a relative expect
    #: (see ``_RELATIVE_FIELDS``), resolved by ``run_matrix``.
    expect: tuple = ()

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise RunbookError("scenario duration_ns must be positive")
        for key, op, value in self.expect:
            if op not in _EXPECT_OPS:
                raise RunbookError(
                    f"expect[{key!r}]: operator {op!r} not in {_EXPECT_OPS}")
            if isinstance(value, dict):
                _check_keys(f"expect[{key!r}]", value, _RELATIVE_FIELDS)
                missing = [f for f in _RELATIVE_FIELDS if f not in value]
                if missing:
                    raise RunbookError(
                        f"expect[{key!r}]: relative expect needs {missing}")
                if type(value["times"]) not in (int, float):
                    raise RunbookError(
                        f"expect[{key!r}]: times {value['times']!r} is not "
                        "a number")


def scenario_from_dict(d: dict) -> ScenarioSpec:
    """Strictly validate and build a :class:`ScenarioSpec` from a dict."""
    if not isinstance(d, dict):
        raise RunbookError(f"scenario: expected an object, got {d!r}")
    _check_keys("scenario", d, (
        "pod", "workloads", "campaign", "policy", "duration_ns",
        "settle_ns", "audit_interval_ns", "invariants", "expect"))
    if "duration_ns" not in d:
        raise RunbookError("scenario: duration_ns is required")
    pod = _dataclass_from("pod", PodShape, d.get("pod", {}))
    workloads = tuple(
        _dataclass_from("workloads[]", WorkloadSpec, w)
        for w in d.get("workloads", ()))
    campaign = _dataclass_from("campaign", CampaignSpec,
                               d.get("campaign", {}))
    policy = _dataclass_from("policy", PolicySpec, d.get("policy", {}))
    expect_raw = d.get("expect", {})
    if isinstance(expect_raw, dict):
        expect = tuple((key, op_val[0], op_val[1])
                       for key, op_val in expect_raw.items())
    else:
        expect = tuple(tuple(e) for e in expect_raw)
    return ScenarioSpec(
        pod=pod, workloads=workloads, campaign=campaign, policy=policy,
        duration_ns=float(d["duration_ns"]),
        settle_ns=float(d.get("settle_ns", 0.0)),
        audit_interval_ns=float(d.get("audit_interval_ns", 2_000_000.0)),
        invariants=tuple(d.get("invariants", ())),
        expect=expect,
    )


# -- runbooks and matrix expansion ------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One point of the matrix: axis choices + seed, fully expanded."""

    cell_id: str                    # "mix=nic/lambda=2/seed=17"
    axes: dict                      # axis name -> chosen value name
    seed: int
    scenario: ScenarioSpec


@dataclass
class Runbook:
    """A base scenario plus named axes of patches and a seed list."""

    name: str
    description: str
    base: dict
    axes: list                      # [(axis_name, [(value_name, patch)])]
    seeds: tuple

    def expand(self, seeds=None) -> list:
        """The full matrix: every axis-value combination x every seed."""
        combos: list[tuple[dict, dict]] = [({}, {})]   # (axes, patch)
        for axis_name, values in self.axes:
            combos = [
                ({**axes, axis_name: value_name}, merge(patch, extra))
                for axes, patch in combos
                for value_name, extra in values
            ]
        cells = []
        for axes, patch in combos:
            scenario = scenario_from_dict(merge(self.base, patch))
            for seed in (self.seeds if seeds is None else seeds):
                parts = [f"{k}={v}" for k, v in axes.items()]
                parts.append(f"seed={int(seed)}")
                cells.append(Cell(cell_id="/".join(parts), axes=dict(axes),
                                  seed=int(seed), scenario=scenario))
        return cells


def runbook_from_dict(d: dict) -> Runbook:
    _check_keys("runbook", d, ("name", "description", "base", "axes",
                               "seeds"))
    for required in ("name", "base"):
        if required not in d:
            raise RunbookError(f"runbook: {required!r} is required")
    axes = []
    for axis_name, values in d.get("axes", {}).items():
        if not values:
            raise RunbookError(f"axis {axis_name!r} has no values")
        parsed = []
        for v in values:
            _check_keys(f"axis {axis_name} value", v, ("name", "patch"))
            if "name" not in v:
                raise RunbookError(f"axis {axis_name!r}: value needs a name")
            parsed.append((str(v["name"]), v.get("patch", {})))
        axes.append((axis_name, parsed))
    seeds = tuple(int(s) for s in d.get("seeds", (17,)))
    if not seeds:
        raise RunbookError("runbook: seeds must be non-empty")
    runbook = Runbook(name=str(d["name"]),
                      description=str(d.get("description", "")),
                      base=d["base"], axes=axes, seeds=seeds)
    # Fail at load time, not run time: every cell builds, and every
    # relative expect names an axis value this runbook has.
    axis_values = {name: {v for v, _patch in values}
                   for name, values in axes}
    for cell in runbook.expand():
        for key, _op, ref in cell.scenario.expect:
            if (isinstance(ref, dict)
                    and ref["value"] not in axis_values.get(ref["axis"], ())):
                raise RunbookError(
                    f"{cell.cell_id}: expect[{key!r}] refers to "
                    f"{ref['axis']}={ref['value']}, which no axis has")
    return runbook


def load_runbook(path) -> Runbook:
    """Load one runbook JSON file."""
    text = pathlib.Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RunbookError(f"{path}: not valid JSON ({exc})") from exc
    return runbook_from_dict(doc)


def builtin_runbooks() -> dict:
    """name -> path for every checked-in runbook."""
    return {path.stem: path for path in sorted(RUNBOOK_DIR.glob("*.json"))}


def resolve_runbook(name_or_path) -> Runbook:
    """Resolve a CLI argument: a builtin name or a JSON file path."""
    builtin = builtin_runbooks()
    if str(name_or_path) in builtin:
        return load_runbook(builtin[str(name_or_path)])
    path = pathlib.Path(name_or_path)
    if path.exists():
        return load_runbook(path)
    raise RunbookError(
        f"no runbook named {name_or_path!r} "
        f"(builtins: {sorted(builtin)}; or give a JSON path)")
