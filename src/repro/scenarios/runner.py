"""Scenario runner: execute matrix cells deterministically, audit each.

One :func:`run_cell` is one simulation: build the pod the cell's
:class:`~repro.scenarios.schema.ScenarioSpec` describes, start the
workload drivers, inject the chaos campaign, and sample every invariant
auditor while it all runs.  :func:`run_matrix` expands a runbook into
its cells, runs each, and aggregates an EXPERIMENTS.md-style table plus
a JSON artifact.

Determinism is inherited, not implemented: everything here runs on the
sim clock with draws from the simulator's seeded streams, so the same
``(runbook, seed)`` replays bit-identically — including the fault log,
whose signature the results carry so CI can diff reruns.

Cell timeline::

    build pod -> bring-up -> [auditor.start]
      -> inject campaign + spawn "during" workloads
      -> run to duration_ns   ([auditor.sample] every audit interval)
      -> drain workloads, settle_ns
      -> run "after" workloads (post-chaos traffic probes)
      -> [auditor.finish] -> expect checks -> postmortem on failure

When a cell fails while a flight recorder is armed (``FLIGHT_POSTMORTEM``
set — see benchmarks/conftest.py), the recorder trips and dumps a
bundle tagged with the cell's axis values *at the cell boundary*: the
ring buffer is shared, so waiting for the end of a matrix would let
later cells overwrite the evidence.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field

from repro.core import PciePool
from repro.channel.ring import RingSaturatedError
from repro.channel.rpc import RetryBudgetExhausted, RpcEndpoint
from repro.faults import ChaosCampaign, FaultInjector, FaultLog
from repro.faults.spec import AgentStall, FaultSchedule, MhdSlow
from repro.health import OverloadError
from repro.obs import names as _names
from repro.obs import runtime as _obs
from repro.pcie.accelerator import AcceleratorSpec
from repro.pcie.nic import NicSpec
from repro.pcie.rings import CompletionEntry
from repro.pcie.ssd import SsdSpec
from repro.scenarios import invariants as _invariants
from repro.scenarios.schema import (
    FAULT_KINDS,
    Cell,
    Runbook,
    ScenarioSpec,
)
from repro.sim import Simulator

#: Failed cells whose bundles were dumped this process, drained by the
#: benchmark conftest so a failing soak's report can point at them.
FAILED_CELLS: list = []

_DEVICE_SPECS = {"nic": NicSpec, "ssd": SsdSpec,
                 "accelerator": AcceleratorSpec}

_NETSTACK_PORT = 7

#: Errors an open-loop driver counts as shed load, not test failure.
_SHED_ERRORS = (OverloadError, RetryBudgetExhausted, RingSaturatedError)

#: A gray fault's window runs from its onset to its detection plus this
#: margin (re-homing and lease run-out); ops that overlap no window are
#: summarized as ``clear``.
_CONTAIN_MARGIN_NS = 100_000_000.0


def consume_failed_cells() -> list:
    """Drain and return the failed-cell registry (conftest hook)."""
    cells = list(FAILED_CELLS)
    FAILED_CELLS.clear()
    return cells


@dataclass
class WorkloadLedger:
    """What one workload driver observed, for audits and summaries."""

    driver: str
    host: str
    offered: int = 0            # open loop: arrivals (admitted + shed)
    admitted: int = 0
    returns: int = 0            # op generators that returned (ok or error)
    ok: int = 0
    errors: int = 0             # typed overload errors (shed server-side)
    shed: int = 0               # client-edge queue-limit rejections
    expected_returns: int = 0   # what `returns` must reach for exactly-once
    in_window: int = 0          # ok ops that completed inside the load window
    load_ns: float = 0.0        # first op to last arrival (open) or return
    starts: list = field(default_factory=list)      # per latency sample
    latencies: list = field(default_factory=list)
    sent: list = field(default_factory=list)        # netstack payloads out
    sent_to_me: list = field(default_factory=list)  # payloads aimed at us
    received: list = field(default_factory=list)


class AuditContext:
    """Everything an auditor may look at.  Read-only by convention."""

    def __init__(self, pool, log, clients, ledgers):
        self.pool = pool
        self.log = log
        self.clients = clients          # [(workload, client-or-vnic)]
        self.ledgers = ledgers          # label -> WorkloadLedger
        self.shared: dict = {}          # auditor scratch, keyed by auditor

    def op_clients(self):
        """(label, client) for every submit/complete-ledger client."""
        return [(f"w{i}.{w.driver}", client)
                for i, (w, client) in enumerate(self.clients)
                if w.driver in ("vssd", "vaccel")]


@dataclass
class CellResult:
    """Outcome of one cell: determinism handle + audit verdicts."""

    cell_id: str
    axes: dict
    seed: int
    signature: str
    events: list
    violations: list
    expect_failures: list
    error: str
    summary: dict
    sim_ns: float

    @property
    def ok(self) -> bool:
        return (not self.violations and not self.expect_failures
                and not self.error)

    def to_dict(self) -> dict:
        return {
            "cell_id": self.cell_id, "axes": dict(self.axes),
            "seed": self.seed, "ok": self.ok,
            "signature": self.signature, "events": list(self.events),
            "violations": list(self.violations),
            "expect_failures": list(self.expect_failures),
            "error": self.error, "summary": dict(self.summary),
            "sim_ns": self.sim_ns,
        }


def _build_fault(fd: dict, devices: list):
    """Materialize one explicit fault dict from the runbook."""
    kwargs = dict(fd)
    kind = kwargs.pop("kind")
    index = kwargs.pop("device", None)
    if index is not None:
        kwargs["device_id"] = devices[int(index)].device_id
    return FAULT_KINDS[kind](**kwargs)


def _write(client, lba, data):
    """Process: one vSSD write; a completion with an error status is a
    failure of the cell, not a completed op."""
    status = yield from client.write(lba, data)
    if status != CompletionEntry.STATUS_OK:
        raise IOError(f"{client.name}: write failed (status={status})")


def _drive_closed(sim, workload, client, ledger):
    """Closed-loop vssd/vaccel driver (the gray-soak workload shape)."""
    yield from client.setup()
    data = b"s" * workload.io_bytes
    ledger.expected_returns = workload.ops
    t_load = sim.now
    for i in range(workload.ops):
        t0 = sim.now
        if workload.driver == "vssd":
            yield from _write(client, (i % 64) * 8, data)
        else:
            yield from client.run_job(1, data)
        ledger.returns += 1
        ledger.ok += 1
        ledger.in_window += 1
        ledger.load_ns = sim.now - t_load
        ledger.starts.append(t0)
        ledger.latencies.append(sim.now - t0)
        if workload.gap_ns > 0:
            yield sim.timeout(workload.gap_ns)


def _drive_open(sim, workload, client, ledger, spawned):
    """Open-loop vssd driver with client-edge shedding (overload soak).

    Arrivals come at a fixed rate for ``duration_ns``; beyond
    ``queue_limit`` in-flight ops new arrivals are shed at the client
    edge (counted, never queued).  Typed overload errors from admitted
    ops count as server-side shed — any other exception is a real
    failure and propagates.  The load window closes with the arrivals;
    only ops that complete inside it count towards goodput.
    """
    yield from client.setup()
    data = b"o" * workload.io_bytes
    interarrival = 1e9 / workload.rate_per_s
    inflight = {"n": 0}
    t_load = sim.now

    def one_op(lba):
        t0 = sim.now
        try:
            yield from _write(client, lba, data)
        except _SHED_ERRORS:
            ledger.errors += 1
        else:
            ledger.ok += 1
            if sim.now - t_load <= workload.duration_ns:
                ledger.in_window += 1
            ledger.starts.append(t0)
            ledger.latencies.append(sim.now - t0)
        finally:
            inflight["n"] -= 1
            ledger.returns += 1

    i = 0
    while sim.now - t_load < workload.duration_ns:
        ledger.offered += 1
        if inflight["n"] >= workload.queue_limit:
            ledger.shed += 1
        else:
            inflight["n"] += 1
            ledger.admitted += 1
            spawned.append(sim.spawn(one_op((i % 256) * 8),
                                     name=f"scen-op.{i}"))
        i += 1
        yield sim.timeout(interarrival)
    ledger.load_ns = sim.now - t_load
    ledger.expected_returns = ledger.admitted


def _drive_netstack(sim, group, vnics, ledgers):
    """One process for every netstack workload: send ring, then receive.

    ``group`` is ``[(workload_index, workload), ...]``.  Each participant
    sends ``ops`` datagrams to its peer, then receives exactly the
    datagrams the others aimed at it.  The ledger records both sides so
    the exactly-once auditor can compare multisets.
    """
    socks = {w.host: vnics[w.host].stack.bind(_NETSTACK_PORT)
             for _i, w in group}
    label_of = {w.host: _label(i, w) for i, w in group}
    for _i, w in group:
        ledger = ledgers[label_of[w.host]]
        for i in range(w.ops):
            payload = f"{w.host}->{w.peer}:{i}".encode()
            ledger.sent.append(payload)
            if w.peer in label_of:
                ledgers[label_of[w.peer]].sent_to_me.append(payload)
            yield from socks[w.host].sendto(
                payload, vnics[w.peer].mac, _NETSTACK_PORT)
    for _i, w in group:
        ledger = ledgers[label_of[w.host]]
        for _ in range(len(ledger.sent_to_me)):
            payload, _mac, _port = yield from socks[w.host].recv()
            ledger.received.append(payload)


def _label(index: int, workload) -> str:
    return f"w{index}.{workload.driver}"


def run_cell(cell: Cell, label: str = "scenario",
             sabotage=None) -> CellResult:
    """Run one cell to completion and audit it.

    ``sabotage`` is a test-only hook: ``(at_ns, fn)`` spawns ``fn(ctx)``
    at the given sim time to corrupt live state, proving the auditors
    trip on seeded violations (mutation testing).  Production runbooks
    have no way to reach it.
    """
    spec: ScenarioSpec = cell.scenario
    sim = Simulator(seed=cell.seed)
    pool_kwargs = {}
    if spec.policy.lease_ttl_ns is not None:
        pool_kwargs["lease_ttl_ns"] = spec.policy.lease_ttl_ns
    if spec.policy.lease_grace_ns is not None:
        pool_kwargs["lease_grace_ns"] = spec.policy.lease_grace_ns
    if spec.policy.journal_cap is not None:
        pool_kwargs["journal_cap"] = spec.policy.journal_cap
    pool = PciePool(sim, n_hosts=spec.pod.n_hosts, n_mhds=spec.pod.n_mhds,
                    ctl_poll_ns=spec.pod.ctl_poll_ns,
                    dev_poll_ns=spec.pod.dev_poll_ns, **pool_kwargs)

    devices = []
    for mix in spec.pod.devices:
        adder = {"nic": pool.add_nic, "ssd": pool.add_ssd,
                 "accelerator": pool.add_accelerator}[mix.kind]
        for _ in range(mix.count):
            if mix.spec:
                devices.append(adder(mix.owner,
                                     spec=_DEVICE_SPECS[mix.kind](
                                         **mix.spec)))
            else:
                devices.append(adder(mix.owner))
    if spec.policy.rebalance_spread is not None:
        pool.orchestrator.rebalance_spread = spec.policy.rebalance_spread
    pool.start()

    # -- clients and bring-up ------------------------------------------
    clients = []
    ledgers: dict[str, WorkloadLedger] = {}
    vnics: dict[str, object] = {}
    for i, w in enumerate(spec.workloads):
        ledgers[_label(i, w)] = WorkloadLedger(driver=w.driver, host=w.host)
        if w.driver == "vssd":
            kwargs = ({"max_io_bytes": w.max_io_bytes}
                      if w.max_io_bytes else {})
            clients.append((w, pool.open_ssd(w.host, **kwargs)))
        elif w.driver == "vaccel":
            clients.append((w, pool.open_accelerator(w.host)))
        else:
            if w.host not in vnics:
                vnics[w.host] = pool.open_nic(w.host)
            if w.peer not in vnics:
                vnics[w.peer] = pool.open_nic(w.peer)
            clients.append((w, vnics[w.host]))

    def bring_up():
        for vnic in vnics.values():
            yield from vnic.start()

    if vnics:
        sim.run(until=sim.spawn(bring_up(), name="scen-bring-up"))

    capped = []
    for pc in spec.policy.path_caps:
        device_id = devices[pc.device].device_id
        pool.handle_for(pc.borrower, device_id)
        owner = pool.owner_of(device_id)
        capped.append(pool._device_servers[(owner, pc.borrower)][2])
        capped[-1].max_inflight = pc.cap

    # -- auditors -------------------------------------------------------
    log = FaultLog()
    ctx = AuditContext(pool, log, clients, ledgers)
    auditors = _invariants.build_auditors(spec.invariants)
    violations: list[str] = []
    for auditor in auditors:
        auditor.start(ctx)

    def audit_loop():
        while True:
            for auditor in auditors:
                _obs.METRICS.counter(_names.SCEN_INVARIANT_CHECKS).inc()
                violations.extend(
                    f"[{sim.now / 1e6:.2f} ms] {violation}"
                    for violation in auditor.sample(ctx))
            yield sim.timeout(spec.audit_interval_ns)

    sim.spawn(audit_loop(), name="scen-audit")

    if sabotage is not None:
        at_ns, mutate = sabotage

        def sabotage_proc():
            yield sim.timeout(max(0.0, at_ns - sim.now))
            mutate(ctx)

        sim.spawn(sabotage_proc(), name="scen-sabotage")

    # -- campaign + during-phase workloads ------------------------------
    faults = []
    if spec.campaign.draws_anything():
        cfg = spec.campaign.chaos_config(spec.duration_ns)
        faults.extend(ChaosCampaign(pool, cfg,
                                    stream=spec.campaign.stream).schedule())
    pinned = [_build_fault(fd, devices) for fd in spec.campaign.faults]
    faults.extend(pinned)
    injector = FaultInjector(pool, log=log)
    injector.run(FaultSchedule(tuple(faults)))

    spawned_ops: list = []
    during = []
    error = ""
    for i, (w, client) in enumerate(clients):
        if w.driver == "netstack" or w.phase != "during":
            continue
        ledger = ledgers[_label(i, w)]
        gen = (_drive_open(sim, w, client, ledger, spawned_ops)
               if w.mode == "open"
               else _drive_closed(sim, w, client, ledger))
        during.append(sim.spawn(gen, name=f"scen-w{i}"))

    try:
        if spec.duration_ns > sim.now:
            sim.run(until=sim.timeout(spec.duration_ns - sim.now))
        for proc in during:
            if proc.is_alive:
                sim.run(until=proc)
        for proc in spawned_ops:
            if proc.is_alive:
                sim.run(until=proc)
        if spec.settle_ns > 0:
            sim.run(until=sim.timeout(spec.settle_ns))

        # -- after-phase workloads (post-chaos traffic probes) ----------
        netstack_after = [(i, w) for i, (w, _c) in enumerate(clients)
                          if w.driver == "netstack" and w.phase == "after"]
        if netstack_after:
            sim.run(until=sim.spawn(
                _drive_netstack(sim, netstack_after, vnics, ledgers),
                name="scen-netstack"))
        for i, (w, client) in enumerate(clients):
            if w.driver == "netstack" or w.phase != "after":
                continue
            ledger = ledgers[_label(i, w)]
            sim.run(until=sim.spawn(
                _drive_closed(sim, w, client, ledger), name=f"scen-w{i}"))
    except Exception as exc:  # noqa: BLE001 - a cell must report, not raise
        error = f"{type(exc).__name__}: {exc}"

    for auditor in auditors:
        violations.extend(f"[final] {violation}"
                          for violation in auditor.finish(ctx))

    summary = _summarize(pool, log, clients, ledgers, pinned)
    for j, server in enumerate(capped):
        summary[f"cap{j}.admission_rejects"] = float(server.admission_rejects)
    expect_failures = _check_expect(spec.expect, summary)

    _obs.METRICS.counter(_names.SCEN_CELLS_RUN).inc()
    _obs.METRICS.histogram(_names.SCEN_CELL_SIM_NS).observe(sim.now)
    for _ in violations:
        _obs.METRICS.counter(_names.SCEN_INVARIANT_VIOLATIONS).inc()
    for _ in expect_failures:
        _obs.METRICS.counter(_names.SCEN_EXPECT_FAILURES).inc()

    result = CellResult(
        cell_id=cell.cell_id, axes=dict(cell.axes), seed=cell.seed,
        signature=log.signature(), events=[e.line() for e in log],
        violations=violations, expect_failures=expect_failures,
        error=error, summary=summary, sim_ns=sim.now,
    )
    if not result.ok:
        _obs.METRICS.counter(_names.SCEN_CELLS_FAILED).inc()
        _dump_postmortem(label, result, sim.now)
    pool.stop()
    return result


def _p99(values) -> float:
    ordered = sorted(values)
    return ordered[int(0.99 * (len(ordered) - 1))]


def _gray_detections(pool, pinned) -> list:
    """``(key, onset_ns, detected_ns or None)`` per pinned gray fault.

    A fail-slow MHD is detected by its first ``mhd_gray_log`` entry, a
    stalled agent by its host's first ``stall_quarantine_log`` entry.
    """
    out = []
    for fault in pinned:
        if isinstance(fault, MhdSlow):
            key, target = f"detect.mhd{fault.mhd_index}_ns", fault.mhd_index
            log = pool.mhd_gray_log
        elif isinstance(fault, AgentStall):
            key, target = f"detect.{fault.host_id}_ns", fault.host_id
            log = pool.orchestrator.stall_quarantine_log
        else:
            continue
        detected = next((t for who, t in log if who == target), None)
        out.append((key, fault.at_ns, detected))
    return out


def _summarize(pool, log, clients, ledgers, pinned) -> dict:
    """Flatten the cell's observable outcome into expect-able keys."""
    orch = pool.orchestrator
    failed_mhds = {i for i, mhd in enumerate(pool.pod.mhds) if mhd.failed}
    summary: dict = {
        "faults.events": float(len(log)),
        "orch.epoch": float(orch.epoch),
        "orch.failovers": float(orch.failovers),
        "orch.migrations": float(orch.migrations),
        "orch.mhd_failures_seen": float(orch.mhd_failures_seen),
        "orch.degraded_assignments": float(orch.degraded_assignments),
        "orch.hosts_quarantined": float(orch.hosts_quarantined),
        "orch.hosts_reinstated": float(orch.hosts_reinstated),
        "orch.quarantine_refusals": float(orch.quarantine_refusals),
        "orch.mhd_reinstates_seen": float(orch.mhd_reinstates_seen),
        "pool.gray_mhds_now": float(len(pool.gray_mhds)),
        "pool.mhd_gray_detections": float(len(pool.mhd_gray_log)),
        "pool.brownout_level_end": float(pool.brownout.level),
        "pool.channels_rebuilt": float(pool.channels_rebuilt),
        # Live channels with a ring on a dead MHD: re-homing missed one.
        "pool.channels_on_failed_mhds": float(sum(
            1 for wired in pool._device_servers.values() for ep in wired
            if isinstance(ep, RpcEndpoint)
            and ep.mhd_footprint() & failed_mhds)),
        "pool.links_degraded": float(sum(
            link.degraded for mhd in pool.pod.mhds for link in mhd.links)),
    }
    # Each fault window runs from onset to detection + margin; an
    # undetected fault's window never closes.
    windows = []
    for key, onset, detected in _gray_detections(pool, pinned):
        if detected is None:
            windows.append((onset, float("inf")))
        else:
            summary[key] = detected - onset
            windows.append((onset, detected + _CONTAIN_MARGIN_NS))
    summary.update(pool.export_control_plane_telemetry())
    summary.update(pool.export_ras_telemetry())
    summary.update(pool.export_overload_telemetry())
    summary.update(pool.export_lease_telemetry())
    for i, (w, client) in enumerate(clients):
        label = _label(i, w)
        ledger = ledgers[label]
        summary[f"{label}.ok"] = float(ledger.ok)
        summary[f"{label}.errors"] = float(ledger.errors)
        summary[f"{label}.shed"] = float(ledger.shed)
        summary[f"{label}.offered"] = float(ledger.offered)
        if w.driver in ("vssd", "vaccel"):
            summary[f"{label}.submitted"] = float(client.ops_submitted)
            summary[f"{label}.completed"] = float(client.ops_completed)
            summary[f"{label}.failovers"] = float(client.failovers)
            summary[f"{label}.hedges"] = float(client.hedges)
            summary[f"{label}.pending"] = float(len(client._pending))
            if ledger.in_window:
                summary[f"{label}.op_ns"] = ledger.load_ns / ledger.in_window
            if ledger.latencies:
                ordered = sorted(ledger.latencies)
                summary[f"{label}.p50_ns"] = ordered[len(ordered) // 2]
                summary[f"{label}.p99_ns"] = _p99(ordered)
            if windows:
                clear = [
                    latency for start, latency
                    in zip(ledger.starts, ledger.latencies, strict=True)
                    if not any(start < hi and lo < start + latency
                               for lo, hi in windows)]
                summary[f"{label}.clear_ops"] = float(len(clear))
                if clear:
                    summary[f"{label}.clear_p99_ns"] = _p99(clear)
        else:
            summary[f"{label}.sent"] = float(len(ledger.sent))
            summary[f"{label}.received"] = float(len(ledger.received))
    return summary


_EXPECT_CHECKS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}


def _check_expect(expect, summary) -> list:
    failures = []
    for key, op, value in expect:
        if isinstance(value, dict):
            continue  # relative: run_matrix compares it with its sibling
        if key not in summary:
            failures.append(f"expect {key}: no such summary key")
            continue
        if not _EXPECT_CHECKS[op](summary[key], value):
            failures.append(
                f"expect {key} {op} {value!r}: actual {summary[key]!r}")
    return failures


def _check_relative(expect, result: CellResult, results) -> list:
    """Check ``result``'s relative expects against its sibling cells.

    A relative expect ``(key, op, {"axis", "value", "key", "times"})``
    compares ``key`` with ``times`` x the sibling's summary ``key``; the
    sibling is the cell of the same seed whose axes equal this cell's
    but for ``axis``, which is ``value``.
    """
    failures = []
    for key, op, ref in expect:
        if not isinstance(ref, dict):
            continue
        axes = {**result.axes, ref["axis"]: ref["value"]}
        sibling = next((r for r in results
                        if r.seed == result.seed and r.axes == axes), None)
        what = (f"expect {key} {op} {ref['times']} x "
                f"[{ref['axis']}={ref['value']}] {ref['key']}")
        if sibling is None:
            failures.append(f"{what}: no such cell")
        elif key not in result.summary or ref["key"] not in sibling.summary:
            failures.append(f"{what}: no such summary key")
        else:
            bound = ref["times"] * sibling.summary[ref["key"]]
            if not _EXPECT_CHECKS[op](result.summary[key], bound):
                failures.append(
                    f"{what} = {bound!r}: actual {result.summary[key]!r}")
    return failures


def _dump_postmortem(label: str, result: CellResult, now: float) -> None:
    """Trip the armed flight recorder and dump a cell-tagged bundle."""
    record = {"runbook": label, "cell_id": result.cell_id,
              "axes": dict(result.axes), "seed": result.seed,
              "violations": list(result.violations),
              "expect_failures": list(result.expect_failures),
              "error": result.error, "bundle": None}
    if _obs.RECORDER.enabled:
        _obs.RECORDER.trip(
            "scenario_cell_failure", now,
            detail=json.dumps({"runbook": label, "cell": result.cell_id,
                               "axes": result.axes, "seed": result.seed}))
        out_dir = os.environ.get("FLIGHT_POSTMORTEM")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            slug = re.sub(r"[^A-Za-z0-9_.=-]+", "_",
                          f"{label}-{result.cell_id}")
            path = os.path.join(out_dir, f"postmortem-scen-{slug}.json")
            _obs.RECORDER.dump(path, metrics=_obs.METRICS)
            record["bundle"] = path
    FAILED_CELLS.append(record)


@dataclass
class MatrixResult:
    """Aggregated outcome of one runbook's matrix."""

    runbook: str
    description: str
    cells: list

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {"runbook": self.runbook, "description": self.description,
                "ok": self.ok,
                "cells": [cell.to_dict() for cell in self.cells]}

    def render_table(self) -> str:
        """EXPERIMENTS.md-style markdown table of the matrix."""
        axis_names = sorted({axis for cell in self.cells
                             for axis in cell.axes})
        header = axis_names + ["seed", "fault events", "sig", "violations",
                               "status"]
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join("---" for _ in header) + "|"]
        for cell in self.cells:
            row = [str(cell.axes.get(axis, "-")) for axis in axis_names]
            row += [str(cell.seed), str(len(cell.events)),
                    cell.signature[:8],
                    str(len(cell.violations) + len(cell.expect_failures)),
                    "PASS" if cell.ok else "FAIL"]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)


def _run_cell_job(payload):
    """Module-level worker for :func:`run_matrix` (must be picklable).

    Returns the cell's result together with any failed-cell records the
    child accumulated, so the parent can merge its registry — a child
    process mutating its own copy of :data:`FAILED_CELLS` would
    otherwise be invisible.
    """
    cell, label = payload
    result = run_cell(cell, label=label)
    return result, consume_failed_cells()


def run_matrix(runbook: Runbook, seeds=None,
               workers: int = 1) -> MatrixResult:
    """Expand and run every cell of ``runbook``; never raises per-cell.

    ``workers > 1`` runs cells in a process pool: every cell is an
    independent simulation (its own :class:`Simulator` built from
    ``cell.seed``), so parallel execution cannot perturb determinism —
    results are merged in expansion order and the table/JSON artifact
    is byte-identical to a serial run.  Process-global metric counters
    (``scen.cells_run`` etc.) tick in the children, not the parent;
    everything a caller checks lives in the returned results.
    """
    cells = runbook.expand(seeds=seeds)
    if workers > 1 and len(cells) > 1:
        import multiprocessing as mp

        # Fork keeps imports warm and inherits the parent's runbook
        # state; fall back to the platform default where unavailable.
        method = ("fork" if "fork" in mp.get_all_start_methods()
                  else None)
        ctx = mp.get_context(method)
        with ctx.Pool(processes=min(workers, len(cells))) as pool:
            outcomes = pool.map(
                _run_cell_job,
                [(cell, runbook.name) for cell in cells],
            )
        results = []
        for result, failed in outcomes:
            results.append(result)
            FAILED_CELLS.extend(failed)
    else:
        results = [run_cell(cell, label=runbook.name) for cell in cells]
    # Relative expects need every cell's summary, so they are checked
    # here, in the parent, the same way for serial and parallel runs.
    for cell, result in zip(cells, results, strict=True):
        failures = _check_relative(cell.scenario.expect, result, results)
        if failures:
            was_ok = result.ok
            result.expect_failures.extend(failures)
            if was_ok:
                _dump_postmortem(runbook.name, result, result.sim_ns)
    return MatrixResult(runbook=runbook.name,
                        description=runbook.description, cells=results)
