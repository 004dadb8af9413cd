"""Always-on invariant auditors: asserted for every matrix cell.

A hand-written soak asserts a hand-picked subset of the pod's safety
properties.  The scenario harness inverts that: every cell, no matter
what its runbook varies, is audited against *all* of these — the
properties are invariants of the pool, not of a particular test.

Auditors see an :class:`AuditContext` and hook three points of the cell
timeline:

* :meth:`InvariantAuditor.start` — after bring-up, before any fault;
* :meth:`InvariantAuditor.sample` — every ``audit_interval_ns`` of sim
  time while the cell runs (faults in flight);
* :meth:`InvariantAuditor.finish` — after the campaign, settle tail,
  and every workload have drained.

``sample``/``finish`` return violation strings; an empty list means the
invariant held.  Auditors must be read-only: they run on the sim clock
interleaved with the system under test, so a mutating auditor would be
a heisenbug factory.

Each auditor is mutation-tested (``tests/scenarios/test_invariants.py``):
a seeded violation — counterfeit budget tokens, a double completion, an
open-loop arrival neither admitted nor shed, a second unfenced lease
holder, an unaccounted poison, a phantom pacer slot, a silenced ring
wake-up, a silenced CQ line watch — must trip exactly the auditor that
owns the property.
"""

from __future__ import annotations

from repro.channel.rpc import RpcEndpoint
from repro.pcie.rings import COMPLETION_BYTES


class InvariantAuditor:
    """Base: one machine-checked safety property."""

    name = "auditor"

    def start(self, ctx) -> None:
        """Observe the healthy pool before any fault lands."""

    def sample(self, ctx) -> list:
        """Check mid-run state; called every audit interval."""
        return []

    def finish(self, ctx) -> list:
        """Check final state once everything has drained."""
        return []

    def _v(self, message: str) -> str:
        return f"{self.name}: {message}"


class ExactlyOnceAuditor(InvariantAuditor):
    """Every observable op happens exactly once.

    Client-side ledgers (submitted/completed counters, pending tables)
    must reconcile after recovery: the owner-side dedup journal makes
    failover replays idempotent, so a completed op is completed *once*
    even when it was physically submitted twice.  An open-loop ledger
    accounts for every arrival: each one was admitted or shed at the
    client edge.  Netstack workloads check the datagram multiset:
    everything sent arrives at its peer exactly once, no loss, no
    duplication.
    """

    name = "exactly_once"

    def finish(self, ctx) -> list:
        violations = []
        for label, client in ctx.op_clients():
            if client.ops_completed != client.ops_submitted:
                violations.append(self._v(
                    f"{label}: completed {client.ops_completed} != "
                    f"submitted {client.ops_submitted}"))
            if len(client._pending) != 0:
                violations.append(self._v(
                    f"{label}: {len(client._pending)} ops still pending"))
        for label, ledger in ctx.ledgers.items():
            if ledger.returns != ledger.expected_returns:
                violations.append(self._v(
                    f"{label}: observed {ledger.returns} op returns, "
                    f"expected {ledger.expected_returns}"))
            if ledger.offered != ledger.admitted + ledger.shed:
                violations.append(self._v(
                    f"{label}: offered {ledger.offered} != admitted "
                    f"{ledger.admitted} + shed {ledger.shed}"))
            if sorted(ledger.received) != sorted(ledger.sent_to_me):
                violations.append(self._v(
                    f"{label}: received datagrams != sent "
                    f"({len(ledger.received)} vs {len(ledger.sent_to_me)})"))
        return violations


class AssignmentAuditor(InvariantAuditor):
    """Zero lost assignments after recovery.

    Every virtual id alive at bring-up must still be in the final
    assignment table with the same borrower and device kind (the
    physical device may legitimately differ: that is what failover
    does), and no assignment may end the run degraded.
    """

    name = "no_lost_assignments"

    def start(self, ctx) -> None:
        ctx.shared["assignments_initial"] = dict(
            ctx.pool.orchestrator.assignment_table())

    def finish(self, ctx) -> list:
        violations = []
        initial = ctx.shared.get("assignments_initial", {})
        final = ctx.pool.orchestrator.assignment_table()
        for vid, (borrower, kind, _device) in sorted(initial.items()):
            if vid not in final:
                violations.append(self._v(
                    f"vid {vid} ({kind} for {borrower}) lost"))
            elif (final[vid][0], final[vid][1]) != (borrower, kind):
                violations.append(self._v(
                    f"vid {vid} rebound {borrower}/{kind} -> "
                    f"{final[vid][0]}/{final[vid][1]}"))
        degraded = ctx.pool.orchestrator.degraded_assignments
        if degraded:
            violations.append(self._v(
                f"{degraded} assignments still degraded after settle"))
        return violations


class CorruptionAuditor(InvariantAuditor):
    """Zero undetected corruption: injected poison == detected + scrubbed.

    Every poisoned line must be accounted for — either scrubbed by the
    recovery plane or still resident (and therefore still detectable).
    A poison the media counters saw but the fault log did not inject
    means corruption entered through an unaudited path.
    """

    name = "no_undetected_corruption"

    def finish(self, ctx) -> list:
        violations = []
        ras = ctx.pool.export_ras_telemetry()
        injected_logged = 0
        for event in ctx.log:
            if event.fault == "MemPoison" and event.action == "poison":
                # target is "mem:0xADDR+N": N poisoned lines.
                injected_logged += int(event.target.rsplit("+", 1)[1])
        injected = ras["ras.poisons_injected"]
        scrubbed = ras["ras.poisons_scrubbed"]
        resident = ras["ras.poisoned_resident"]
        if injected != injected_logged:
            violations.append(self._v(
                f"media saw {injected:.0f} poisons, fault log injected "
                f"{injected_logged}"))
        if injected != scrubbed + resident:
            violations.append(self._v(
                f"{injected:.0f} injected != {scrubbed:.0f} scrubbed + "
                f"{resident:.0f} resident"))
        return violations


class FencingAuditor(InvariantAuditor):
    """Fencing safety: one unfenced owner per device, monotone epochs.

    Samples the pool's structural fencing invariant (at most one
    unexpired lease holder serving each device), that lease tokens never
    move backwards (a fenced server's token must stay fenced forever),
    and that the orchestrator epoch only ever steps forward (mod-256
    wrap allowed — one step at a time).
    """

    name = "fencing_safety"

    def start(self, ctx) -> None:
        ctx.shared["fencing_epoch"] = ctx.pool.orchestrator.epoch
        ctx.shared["fencing_tokens"] = {}

    def sample(self, ctx) -> list:
        violations = [self._v(msg)
                      for msg in ctx.pool.check_fencing_invariant()]
        orch = ctx.pool.orchestrator
        prev = ctx.shared.get("fencing_epoch", 0)
        if orch.epoch not in (prev, (prev + 1) % 256):
            violations.append(self._v(
                f"epoch jumped {prev} -> {orch.epoch} (non-monotone)"))
        ctx.shared["fencing_epoch"] = orch.epoch
        tokens = ctx.shared.setdefault("fencing_tokens", {})
        for device_id, lease in sorted(orch.leases._leases.items()):
            high = tokens.get(device_id, 0)
            if lease.token < high:
                violations.append(self._v(
                    f"device {device_id} lease token regressed "
                    f"{high} -> {lease.token}"))
            tokens[device_id] = max(high, lease.token)
        return violations

    def finish(self, ctx) -> list:
        return self.sample(ctx)


class QuarantineLeaseAuditor(InvariantAuditor):
    """Lease safety under quarantine: no new grants to quarantined hosts.

    Quarantine must not revoke what a host already holds (that would
    turn a gray suspicion into an availability loss), but the
    orchestrator must never mint a *new* lease term for a device onto a
    host while that host is quarantined — placement refusal is the whole
    point of probation.
    """

    name = "lease_safety_under_quarantine"

    def start(self, ctx) -> None:
        ctx.shared["quarantine_tokens"] = {
            device_id: (lease.token, lease.holder_host)
            for device_id, lease
            in ctx.pool.orchestrator.leases._leases.items()}

    def sample(self, ctx) -> list:
        violations = []
        orch = ctx.pool.orchestrator
        quarantined = set(orch.quarantined_hosts)
        known = ctx.shared.setdefault("quarantine_tokens", {})
        for device_id, lease in sorted(orch.leases._leases.items()):
            prev = known.get(device_id)
            is_new_grant = prev is None or lease.token != prev[0]
            if is_new_grant and lease.holder_host in quarantined:
                violations.append(self._v(
                    f"device {device_id} granted token {lease.token} to "
                    f"quarantined host {lease.holder_host}"))
            known[device_id] = (lease.token, lease.holder_host)
        return violations

    def finish(self, ctx) -> list:
        return self.sample(ctx)


class RetryBudgetAuditor(InvariantAuditor):
    """Retry-budget conservation: tokens are minted only by goodput.

    Each per-host bucket must satisfy
    ``tokens == burst + credited_total - debited_total`` exactly and
    stay inside ``[0, burst]``.  A bucket that drifts from its ledger
    means recovery traffic found an unaccounted funding source — the
    retry-storm amplification bound would be fiction.
    """

    name = "retry_budget_conservation"

    def _check(self, ctx) -> list:
        violations = []
        for host, budget in sorted(ctx.pool._budgets.items()):
            expected = budget.burst + budget.credited_total \
                - budget.debited_total
            if abs(budget.tokens - expected) > 1e-6:
                violations.append(self._v(
                    f"{host}: tokens {budget.tokens:.3f} != burst "
                    f"{budget.burst:.0f} + credited "
                    f"{budget.credited_total:.3f} - debited "
                    f"{budget.debited_total:.3f}"))
            if not (-1e-9 <= budget.tokens <= budget.burst + 1e-9):
                violations.append(self._v(
                    f"{host}: tokens {budget.tokens:.3f} outside "
                    f"[0, {budget.burst:.0f}]"))
        return violations

    def sample(self, ctx) -> list:
        return self._check(ctx)

    def finish(self, ctx) -> list:
        return self._check(ctx)


class PacerSlotAuditor(InvariantAuditor):
    """Pacer-slot conservation: every AIMD window slot is accounted for.

    Each window must satisfy ``acquired == released + inflight`` with
    ``inflight >= 0`` — a slot taken off the books, or handed back
    twice, breaks the ledger — and must never lose a wakeup: no request
    is parked while ``inflight < window``, because every release and
    every increase grants the head of the queue in the same step.
    """

    name = "pacer_slot_conservation"

    def _check(self, ctx) -> list:
        violations = []
        for _key, pacer in sorted(ctx.pool._pacers.items()):
            if pacer.acquired != pacer.released + pacer.inflight:
                violations.append(self._v(
                    f"{pacer.name}: acquired {pacer.acquired} != released "
                    f"{pacer.released} + inflight {pacer.inflight}"))
            if pacer.inflight < 0:
                violations.append(self._v(
                    f"{pacer.name}: negative inflight {pacer.inflight}"))
            if pacer.parked and pacer.inflight < pacer.window:
                violations.append(self._v(
                    f"{pacer.name}: lost wakeup: {pacer.parked} parked, "
                    f"window {pacer.window:.1f} > inflight "
                    f"{pacer.inflight}"))
        return violations

    def sample(self, ctx) -> list:
        return self._check(ctx)

    def finish(self, ctx) -> list:
        return self._check(ctx)


class ParkedDispatcherLivenessAuditor(InvariantAuditor):
    """Parked-dispatcher liveness: every publish wakes its poller.

    An idle RPC dispatcher parks on its receive ring's ``wake`` event
    with no timeout behind it, and only when the sender's announced
    count shows nothing in flight.  Every later publish triggers the
    event in the same step it raises the count, so a dispatcher still
    parked (its wake pending) while ``published`` exceeds ``consumed``
    has missed a wake-up: the message would sit unread until some later
    publish on that ring.
    """

    name = "parked_dispatcher_liveness"

    def _check(self, ctx) -> list:
        violations = []
        for _key, wired in sorted(ctx.pool._device_servers.items()):
            for endpoint in wired:
                if not isinstance(endpoint, RpcEndpoint):
                    continue
                rx = endpoint.rx
                if (rx.wake is not None and not rx.wake.triggered
                        and rx.published > rx.consumed):
                    violations.append(self._v(
                        f"{endpoint.name}: parked with "
                        f"{rx.published - rx.consumed} published slot(s) "
                        f"unread"))
        return violations

    def sample(self, ctx) -> list:
        return self._check(ctx)

    def finish(self, ctx) -> list:
        return self._check(ctx)


class ParkedCollectorLivenessAuditor(InvariantAuditor):
    """Parked-collector liveness: every CQ entry wakes its collector.

    A queue client's CQ collector parks after an empty read with no
    timeout behind it; a watch on its CQ head line (and on that line's
    link, and the client's own failure paths) wakes it.  A collector
    still parked, its wake pending, while its head entry is already in
    pool memory has lost a wake-up: the op would sit unreaped until
    some later change to that line, or the op-timeout failover.
    """

    name = "parked_collector_liveness"

    def _check(self, ctx) -> list:
        violations = []
        for label, client in ctx.op_clients():
            park = client._cq_park
            if park is None or park.wake.triggered:
                continue
            addr, expect = client._cq_slot()
            raw = client.memsys.peek_uncached(addr, COMPLETION_BYTES)
            # An entry's seq tag is its first byte.  Read it without
            # CompletionEntry.decode, which perfbench counts as a CQ poll.
            if raw is not None and raw[0] == expect:
                violations.append(self._v(
                    f"{label}: parked with CQ entry {client._cq_head} "
                    f"already written"))
        return violations

    def sample(self, ctx) -> list:
        return self._check(ctx)

    def finish(self, ctx) -> list:
        return self._check(ctx)


#: Registry: auditor name -> factory.  ``ScenarioSpec.invariants`` may
#: name a subset; the default is all of them, always.
AUDITORS = {
    cls.name: cls
    for cls in (ExactlyOnceAuditor, AssignmentAuditor, CorruptionAuditor,
                FencingAuditor, QuarantineLeaseAuditor, RetryBudgetAuditor,
                PacerSlotAuditor, ParkedDispatcherLivenessAuditor,
                ParkedCollectorLivenessAuditor)
}


def build_auditors(names=()) -> list:
    """Instantiate the requested auditors (all of them by default)."""
    chosen = tuple(names) or tuple(AUDITORS)
    unknown = sorted(set(chosen) - set(AUDITORS))
    if unknown:
        raise ValueError(f"unknown invariant auditor(s): {unknown}; "
                         f"known: {sorted(AUDITORS)}")
    return [AUDITORS[name]() for name in chosen]
