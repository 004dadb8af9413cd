"""Mutation tests: every auditor trips on its seeded violation.

Each test corrupts live pool state mid-run through the runner's
test-only ``sabotage`` hook and asserts that exactly the auditor owning
that property reports a violation.  An auditor that stays green under
its own mutation is a tautology, not a safety net.
"""

from repro.channel.rpc import RpcEndpoint
from repro.scenarios import build_auditors, run_cell
from repro.scenarios.invariants import AUDITORS
from repro.scenarios.schema import Cell, merge, scenario_from_dict

import pytest

ZERO_DRAWS = {c: 0 for c in (
    "device_flaps", "link_flaps", "agent_crashes",
    "orchestrator_restarts", "mhd_degrades", "mem_poisons")}


def quiet_cell(seed=5, **overrides):
    d = {
        "duration_ns": 200e6,
        "pod": {"n_hosts": 3, "n_mhds": 2,
                "devices": [{"kind": "ssd", "owner": "h0"},
                            {"kind": "ssd", "owner": "h1"}]},
        "workloads": [{"driver": "vssd", "host": "h2", "mode": "closed",
                       "ops": 20, "gap_ns": 1e6}],
        "campaign": {"config": dict(ZERO_DRAWS)},
    }
    spec = scenario_from_dict(merge(d, overrides))
    return Cell(cell_id=f"mutation/seed={seed}", axes={}, seed=seed,
                scenario=spec)


def run_sabotaged(mutate, at_ns=120e6, **overrides):
    """Run the quiet cell with one mid-run state corruption."""
    return run_cell(quiet_cell(**overrides), label="mutation",
                    sabotage=(at_ns, mutate))


def tripped(result):
    """The set of auditor names that reported violations."""
    names = set()
    for violation in result.violations:
        body = violation.split("] ", 1)[1]
        names.add(body.split(":", 1)[0])
    return names


def test_control_no_mutation_no_violations():
    """The sabotage-free cell is green — mutations, not noise, trip."""
    result = run_sabotaged(lambda ctx: None)
    assert result.ok, (result.violations, result.error)


def test_exactly_once_trips_on_double_completion():
    def double_complete(ctx):
        _label, client = ctx.op_clients()[0]
        client.ops_completed += 1

    result = run_sabotaged(double_complete)
    assert not result.ok
    assert tripped(result) == {"exactly_once"}


def test_exactly_once_trips_on_an_unaccounted_open_loop_arrival():
    """An open-loop arrival is admitted or shed; one that is neither
    was lost at the client edge."""
    def lose_arrival(ctx):
        ctx.ledgers["w0.vssd"].offered += 1

    open_loop = {"workloads": [{
        "driver": "vssd", "host": "h2", "mode": "open",
        "rate_per_s": 2000.0, "duration_ns": 100e6, "queue_limit": 4}]}
    control = run_sabotaged(lambda ctx: None, at_ns=50e6, **open_loop)
    assert control.ok, (control.violations, control.error)
    assert control.summary["w0.vssd.offered"] > 0
    result = run_sabotaged(lose_arrival, at_ns=50e6, **open_loop)
    assert tripped(result) == {"exactly_once"}
    assert any("admitted" in v for v in result.violations)


def test_no_lost_assignments_trips_on_dropped_vid():
    def drop_assignment(ctx):
        orch = ctx.pool.orchestrator
        vid = next(iter(orch._assignments))
        orch._assignments.pop(vid)

    result = run_sabotaged(drop_assignment)
    assert not result.ok
    assert "no_lost_assignments" in tripped(result)


def test_no_undetected_corruption_trips_on_unlogged_poison():
    def poison_behind_the_logs_back(ctx):
        rng = next(r for _idx, r, label in ctx.pool.pod.ras_allocations()
                   if label.startswith("rpc:ctl:"))
        ctx.pool.poison_memory(rng.base, 1)

    result = run_sabotaged(poison_behind_the_logs_back)
    assert not result.ok
    assert tripped(result) == {"no_undetected_corruption"}


def test_fencing_safety_trips_on_epoch_jump():
    def jump_epoch(ctx):
        orch = ctx.pool.orchestrator
        orch.epoch = (orch.epoch + 5) % 256

    result = run_sabotaged(jump_epoch)
    assert not result.ok
    assert "fencing_safety" in tripped(result)
    assert any("epoch jumped" in v for v in result.violations)


def test_lease_safety_trips_on_grant_to_quarantined_host():
    def grant_to_quarantined(ctx):
        orch = ctx.pool.orchestrator
        assigned = {device for _b, _k, device
                    in orch.assignment_table().values()}
        device_id = next(d for d in sorted(ctx.pool._devices)
                         if d not in assigned)
        orch._quarantined_hosts.add("h1")
        orch.leases.grant(device_id, "h1", ctx.pool.sim.now)

    result = run_sabotaged(grant_to_quarantined)
    assert not result.ok
    assert "lease_safety_under_quarantine" in tripped(result)


def test_retry_budget_trips_on_counterfeit_tokens():
    def counterfeit_tokens(ctx):
        ctx.pool.budget_for("h2").tokens += 5.0

    result = run_sabotaged(counterfeit_tokens)
    assert not result.ok
    assert tripped(result) == {"retry_budget_conservation"}


def only_pacer(ctx):
    """The one AIMD window of the quiet cell's h2 vSSD path."""
    (pacer,) = ctx.pool._pacers.values()
    return pacer


def test_pacer_slot_conservation_trips_on_phantom_acquire():
    def phantom_acquire(ctx):
        only_pacer(ctx).inflight += 1        # a slot taken off the books

    result = run_sabotaged(phantom_acquire)
    assert not result.ok
    assert tripped(result) == {"pacer_slot_conservation"}
    assert any("acquired" in v for v in result.violations)


def test_pacer_slot_conservation_trips_on_negative_inflight():
    def unguarded_double_release(ctx):
        pacer = only_pacer(ctx)
        pacer.inflight -= 1                  # past the double-release guard
        pacer.released += 1

    result = run_sabotaged(unguarded_double_release)
    assert not result.ok
    assert tripped(result) == {"pacer_slot_conservation"}
    assert all("negative inflight" in v for v in result.violations)


def test_pacer_slot_conservation_trips_on_a_disarmed_parked_waiter():
    def park_disarmed(ctx):
        pacer = only_pacer(ctx)
        window = pacer.window
        pacer.window = float(pacer.inflight)     # full...
        next(pacer.wait_for_slot(ctx.pool.sim))  # ...so a submitter parks
        pacer.window = window                    # reopened without a wake

    result = run_sabotaged(park_disarmed)
    assert not result.ok
    assert tripped(result) == {"pacer_slot_conservation"}
    assert all("lost wakeup" in v for v in result.violations)


def announce_without_wake(sender):
    """Make ``sender``'s next publish record its count on the receiver
    but not trigger the receiver's wake event."""
    def announce():
        sender.peer.published = sender.sent
        del sender._announce             # later publishes wake again
    sender._announce = announce


def test_parked_dispatcher_liveness_trips_on_a_silenced_wake():
    def silence_next_wakes(ctx):
        for wired in ctx.pool._device_servers.values():
            for endpoint in wired:
                if isinstance(endpoint, RpcEndpoint):
                    announce_without_wake(endpoint.tx)

    result = run_sabotaged(silence_next_wakes)
    assert not result.ok
    assert tripped(result) == {"parked_dispatcher_liveness"}
    assert all("unread" in v for v in result.violations)
    assert not result.expect_failures and not result.error


def silence_next_line_watch(client):
    """Make the CQ line watch ``client``'s collector arms next fire
    without waking it."""
    def silenced():
        del client._on_cq_line           # later parks are woken again
    client._on_cq_line = silenced


def test_parked_collector_liveness_trips_on_a_silenced_line_watch():
    """At 5 ms, while the closed loop's ops still run, the collector's
    next CQ line watch fires without waking it.  The op it waits for
    sits unreaped, its entry written, until the op-timeout watchdog
    fails over about 200 ms later and the failover's CQ drain claims
    it.  So the op still completes exactly once and only the liveness
    auditor trips, at every sample in between."""
    def silence_next_watches(ctx):
        for _label, client in ctx.op_clients():
            silence_next_line_watch(client)

    result = run_sabotaged(silence_next_watches, at_ns=5e6)
    assert not result.ok
    assert tripped(result) == {"parked_collector_liveness"}
    assert all("already written" in v for v in result.violations)
    assert result.summary["w0.vssd.failovers"] == 1.0
    assert not result.expect_failures and not result.error


def test_registry_covers_the_issue_invariants():
    assert set(AUDITORS) == {
        "exactly_once", "no_lost_assignments", "no_undetected_corruption",
        "fencing_safety", "lease_safety_under_quarantine",
        "retry_budget_conservation", "pacer_slot_conservation",
        "parked_dispatcher_liveness", "parked_collector_liveness"}


def test_build_auditors_defaults_to_all():
    assert {a.name for a in build_auditors()} == set(AUDITORS)


def test_build_auditors_subset_and_unknown():
    chosen = build_auditors(["fencing_safety"])
    assert [a.name for a in chosen] == ["fencing_safety"]
    with pytest.raises(ValueError, match="unknown invariant"):
        build_auditors(["fencing_safty"])
