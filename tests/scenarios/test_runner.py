"""Cell runner: determinism, summaries, expect gates, aggregation."""

from repro.core import PciePool
from repro.faults import (
    DeviceCrash, FaultInjector, FaultLog, FaultSchedule, OwnerKill,
)
from repro.pcie.rings import CompletionEntry
from repro.scenarios import run_cell, run_matrix, runbook_from_dict
from repro.scenarios.runner import consume_failed_cells
from repro.scenarios.schema import Cell, merge, scenario_from_dict
from repro.sim import Simulator

ZERO_DRAWS = {c: 0 for c in (
    "device_flaps", "link_flaps", "agent_crashes",
    "orchestrator_restarts", "mhd_degrades", "mem_poisons")}


def tiny_scenario(**overrides):
    d = {
        "duration_ns": 200e6,
        "pod": {"n_hosts": 3, "n_mhds": 2,
                "devices": [{"kind": "ssd", "owner": "h0"},
                            {"kind": "ssd", "owner": "h1"}]},
        "workloads": [{"driver": "vssd", "host": "h2", "mode": "closed",
                       "ops": 20, "gap_ns": 1e6}],
        "campaign": {"config": dict(ZERO_DRAWS)},
    }
    return scenario_from_dict(merge(d, overrides))


def tiny_cell(seed=5, **overrides):
    return Cell(cell_id=f"seed={seed}", axes={}, seed=seed,
                scenario=tiny_scenario(**overrides))


def test_quiet_cell_passes_every_auditor():
    result = run_cell(tiny_cell())
    assert result.ok, (result.violations, result.expect_failures,
                       result.error)
    assert result.violations == []
    assert result.summary["w0.vssd.ok"] == 20
    assert result.summary["w0.vssd.pending"] == 0


def test_same_seed_bit_identical_fault_log():
    spec_faults = {"campaign": {"faults": [
        {"kind": "DeviceFlap", "device": 0, "at_ns": 30e6,
         "down_ns": 10e6},
        {"kind": "AgentStall", "host_id": "h0", "at_ns": 60e6,
         "down_ns": 20e6},
    ]}}
    a = run_cell(tiny_cell(**spec_faults))
    b = run_cell(tiny_cell(**spec_faults))
    assert a.signature == b.signature
    assert a.events == b.events
    assert a.summary == b.summary


def test_different_seed_different_drawn_campaign():
    draws = {"campaign": {"config": {
        **ZERO_DRAWS, "device_flaps": 2, "link_flaps": 1,
        "min_down_ns": 1e6, "max_down_ns": 5e6, "settle_ns": 50e6}}}
    a = run_cell(tiny_cell(seed=5, **draws))
    b = run_cell(tiny_cell(seed=6, **draws))
    assert a.signature != b.signature


def test_explicit_fault_lands_in_the_log():
    result = run_cell(tiny_cell(**{"campaign": {"faults": [
        {"kind": "MhdSlow", "mhd_index": 1, "at_ns": 20e6,
         "down_ns": 30e6, "latency_factor": 10.0}]}}))
    assert any("MhdSlow" in line for line in result.events)


def test_expect_failure_fails_the_cell():
    result = run_cell(tiny_cell(
        **{"expect": {"w0.vssd.ok": ["==", 21]}}))
    assert not result.ok
    assert any("w0.vssd.ok" in f for f in result.expect_failures)
    consume_failed_cells()


def test_expect_unknown_key_fails_the_cell():
    result = run_cell(tiny_cell(
        **{"expect": {"no.such.key": [">=", 0]}}))
    assert not result.ok
    assert any("no such summary key" in f for f in result.expect_failures)
    consume_failed_cells()


def test_failed_cell_lands_in_the_postmortem_registry():
    consume_failed_cells()
    run_cell(Cell(cell_id="load=hi/seed=5", axes={"load": "hi"}, seed=5,
                  scenario=tiny_scenario(
                      **{"expect": {"w0.vssd.ok": ["==", 0]}})),
             label="reg-test")
    cells = consume_failed_cells()
    assert len(cells) == 1
    assert cells[0]["runbook"] == "reg-test"
    assert cells[0]["axes"] == {"load": "hi"}
    assert cells[0]["bundle"] is None  # recorder not armed
    assert consume_failed_cells() == []  # drained


def test_run_matrix_aggregates_and_renders():
    runbook = runbook_from_dict({
        "name": "tiny",
        "description": "runner test",
        "seeds": [5],
        "base": {
            "duration_ns": 200e6,
            "pod": {"n_hosts": 3, "n_mhds": 2,
                    "devices": [{"kind": "ssd", "owner": "h0"}]},
            "workloads": [{"driver": "vssd", "host": "h2", "ops": 10,
                           "gap_ns": 1e6}],
            "campaign": {"config": dict(ZERO_DRAWS)},
        },
        "axes": {"load": [{"name": "lo", "patch": {}},
                          {"name": "hi", "patch": {"workloads": [
                              {"driver": "vssd", "host": "h2",
                               "ops": 20, "gap_ns": 1e6}]}}]},
    })
    result = run_matrix(runbook)
    assert result.ok
    assert [c.cell_id for c in result.cells] == ["load=lo/seed=5",
                                                 "load=hi/seed=5"]
    table = result.render_table()
    assert "| load |" in table.splitlines()[0]
    assert table.count("PASS") == 2
    doc = result.to_dict()
    assert doc["ok"] and len(doc["cells"]) == 2


def test_vaccel_driver_runs():
    result = run_cell(tiny_cell(**{
        "pod": {"devices": [{"kind": "accelerator", "owner": "h0"}]},
        "workloads": [{"driver": "vaccel", "host": "h1", "ops": 5,
                       "gap_ns": 1e6, "io_bytes": 256}],
    }))
    assert result.ok, (result.violations, result.error)
    assert result.summary["w0.vaccel.ok"] == 5


def test_netstack_after_probe_round_trips():
    result = run_cell(tiny_cell(**{
        "duration_ns": 50e6,
        "pod": {"devices": [{"kind": "nic", "owner": "h0", "count": 2}]},
        "workloads": [
            {"driver": "netstack", "host": "h1", "peer": "h2",
             "phase": "after", "ops": 2},
            {"driver": "netstack", "host": "h2", "peer": "h1",
             "phase": "after", "ops": 2},
        ],
    }))
    assert result.ok, (result.violations, result.error)
    assert result.summary["w0.netstack.received"] == 2
    assert result.summary["w1.netstack.received"] == 2


def test_detection_keys_absent_when_nothing_was_detected():
    """Faults too brief to detect leave no detection key, and a window
    with no detection never closes: ops after its onset are not clear."""
    result = run_cell(tiny_cell(**{"campaign": {"faults": [
        {"kind": "MhdSlow", "mhd_index": 1, "at_ns": 10e6,
         "down_ns": 1e6, "latency_factor": 1.5},
        {"kind": "AgentStall", "host_id": "h0", "at_ns": 12e6,
         "down_ns": 1e6}]}}))
    assert result.ok, (result.violations, result.error)
    assert "detect.mhd1_ns" not in result.summary
    assert "detect.h0_ns" not in result.summary
    assert 0 < result.summary["w0.vssd.clear_ops"] < 20
    # A cell with no pinned gray fault has no fault windows at all.
    quiet = run_cell(tiny_cell())
    assert "w0.vssd.clear_ops" not in quiet.summary
    assert quiet.summary["w0.vssd.op_ns"] > 1e6      # ops are 1 ms apart


def relative_runbook(op, key):
    """Two load levels; the hi cell's ok count is checked against lo's."""
    workload = {"driver": "vssd", "host": "h2", "ops": 5, "gap_ns": 1e6}
    return runbook_from_dict({
        "name": "rel",
        "description": "relative expects",
        "seeds": [5],
        "base": {
            "duration_ns": 50e6,
            "pod": {"n_hosts": 3, "n_mhds": 2,
                    "devices": [{"kind": "ssd", "owner": "h0"}]},
            "workloads": [workload],
            "campaign": {"config": dict(ZERO_DRAWS)},
        },
        "axes": {"load": [
            {"name": "lo", "patch": {}},
            {"name": "hi", "patch": {
                "workloads": [{**workload, "ops": 10}],
                "expect": {"w0.vssd.ok": [op, {
                    "axis": "load", "value": "lo", "key": key,
                    "times": 2}]}}},
        ]},
    })


def test_relative_expect_compares_with_the_sibling_cell():
    passing = run_matrix(relative_runbook("==", "w0.vssd.ok"))
    assert passing.ok, [c.expect_failures for c in passing.cells]
    failing = run_matrix(relative_runbook(">", "w0.vssd.ok"))
    lo, hi = failing.cells
    assert lo.ok
    assert not hi.ok
    assert hi.expect_failures == [
        "expect w0.vssd.ok > 2 x [load=lo] w0.vssd.ok = 10.0: "
        "actual 10.0"]
    assert [c["cell_id"] for c in consume_failed_cells()] == [hi.cell_id]


def test_relative_expect_without_sibling_or_key_fails_the_cell():
    missing_key = run_matrix(relative_runbook("==", "no.such"))
    assert missing_key.cells[0].ok
    assert missing_key.cells[1].expect_failures == [
        "expect w0.vssd.ok == 2 x [load=lo] no.such: no such summary key"]
    # Loading checks the axis value exists; a matrix run over fewer
    # values (here: hi alone) must still report, not crash.
    runbook = relative_runbook("==", "w0.vssd.ok")
    runbook.axes = [("load", runbook.axes[0][1][1:])]
    (hi,) = run_matrix(runbook).cells
    assert hi.expect_failures == [
        "expect w0.vssd.ok == 2 x [load=lo] w0.vssd.ok: no such cell"]
    consume_failed_cells()


def test_owner_kill_aims_at_the_owner_at_fire_time():
    """OwnerKill resolves its device when it fires: after an earlier
    migration it kills the borrower's new owner, not the first one."""
    sim = Simulator(seed=5)
    pool = PciePool(sim, n_hosts=3, ctl_poll_ns=200_000.0,
                    dev_poll_ns=50_000.0)
    ssds = [pool.add_ssd("h0"), pool.add_ssd("h1")]
    pool.start()
    client = pool.open_ssd("h2")
    first = client.handle.device_id
    second = next(s.device_id for s in ssds if s.device_id != first)
    log = FaultLog()
    FaultInjector(pool, log=log).run(FaultSchedule((
        DeviceCrash(device_id=first, at_ns=10e6),
        OwnerKill(borrower_host="h2", device_kind="ssd", at_ns=150e6,
                  down_ns=20e6),
    )))
    sim.run(until=sim.timeout(200e6))
    assert pool.orchestrator.failovers == 1
    owner = pool.owner_of(second)
    assert owner != pool.owner_of(first)
    assert [line.split("|", 1)[1] for line in (e.line() for e in log)] == [
        f"DeviceCrash|device:{first}|fail",
        f"HostPartition|host:{owner}|partition",
        f"AgentCrash|agent:{owner}|crash",
        f"DeviceCrash|device:{second}|fail",
        f"HostPartition|host:{owner}|heal",
    ]
    pool.stop()


def test_write_error_status_fails_the_cell():
    """A vSSD write that completes with an error status is a failure of
    the cell, not a completed op."""
    def fail_writes(ctx):
        _label, client = ctx.op_clients()[0]

        def write(lba, data):
            yield ctx.pool.sim.timeout(1_000.0)
            return CompletionEntry.STATUS_ERROR

        client.write = write

    result = run_cell(tiny_cell(), sabotage=(5e6, fail_writes))
    assert not result.ok
    assert "write failed (status=1)" in result.error
    consume_failed_cells()
