"""CLI smoke tests: every subcommand runs and prints its series."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_help_lists_experiments(capsys):
    rc, out = run_cli(capsys, "list")
    assert rc == 0
    assert "fig2" in out and "fig4" in out and "torless" in out


def test_no_command_prints_help(capsys):
    rc, out = run_cli(capsys)
    assert rc == 0
    assert "fig3" in out


def test_fig2(capsys):
    rc, out = run_cli(capsys, "fig2", "--hosts", "16", "--seeds", "1")
    assert rc == 0
    assert "ssd_gb" in out and "%" in out


def test_fig4(capsys):
    rc, out = run_cli(capsys, "fig4", "--messages", "200")
    assert rc == 0
    assert "p50" in out and "ns" in out


def test_sqrtn(capsys):
    rc, out = run_cli(capsys, "sqrtn", "--samples", "200")
    assert rc == 0
    assert "SSD stranding" in out and "NIC stranding" in out


def test_cost(capsys):
    rc, out = run_cli(capsys, "cost")
    assert rc == 0
    assert "PCIe switches" in out and "$0" in out


def test_torless(capsys):
    rc, out = run_cli(capsys, "torless", "--lam", "4")
    assert rc == 0
    assert "tor-less" in out


def test_fig3_small(capsys):
    rc, out = run_cli(capsys, "fig3", "--payload", "1024",
                      "--requests", "60", "--loads", "2.0")
    assert rc == 0
    assert "cxl" in out.lower()


def test_trace_fig4_emits_valid_chrome_json(capsys, tmp_path):
    import json

    from repro.obs import runtime as _obs
    from repro.obs.export import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    rc, out = run_cli(capsys, "trace", "fig4", "--messages", "30",
                      "--out", str(out_path))
    assert rc == 0
    assert "perfetto" in out
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    # One connected cross-host trace per round: sender app + rpc-layer
    # spans and the receiver handler share a trace id.
    traces = {}
    for ev in doc["traceEvents"]:
        trace = (ev.get("args") or {}).get("trace")
        if trace:
            traces.setdefault(trace, set()).add(ev["name"])
    rounds = [names for names in traces.values()
              if "pingpong.round" in names]
    assert len(rounds) == 30
    for names in rounds:
        assert {"ring.send", "pingpong.handle"} <= names
    # The CLI disabled tracing on the way out.
    assert not _obs.tracing_enabled()


def test_trace_doorbell_shows_poison_recovery(capsys, tmp_path):
    # The chaos runbook's first cell: forwarded doorbells on borrowed
    # NICs, a poisoned ring slot detected, skipped and retransmitted.
    out_path = tmp_path / "trace.json"
    rc, out = run_cli(capsys, "trace", "chaos", "--out", str(out_path))
    assert rc == 0
    assert "chaos/lambda=1/seed=11: every auditor and expect passes" in out
    import json
    names = {ev["name"]
             for ev in json.loads(out_path.read_text())["traceEvents"]}
    assert {"doorbell.fwd", "ring.slot_corrupt", "rpc.backoff",
            "fault:MemPoison"} <= names


def test_trace_failover_single_trace_spans_owner_handover(capsys, tmp_path):
    # The lease cell kills the SSD's owner mid-stream; its expects and
    # auditors gate exactly-once completion, the failover and fencing.
    out_path = tmp_path / "trace.json"
    rc, out = run_cli(capsys, "trace", "lease", "--out", str(out_path))
    assert rc == 0
    assert "lease/seed=17: every auditor and expect passes" in out
    import json
    evs = json.loads(out_path.read_text())["traceEvents"]
    writes = [ev for ev in evs
              if ev.get("ph") == "X" and ev["name"].startswith("vssd.write")]
    # One write straddles the owner's death (~28 ms) instead of the
    # ~20 µs fast path: it started on one owner and finished on another.
    long_write = max(writes, key=lambda ev: ev["dur"])
    assert long_write["dur"] > 10_000.0  # µs
    trace_id = long_write["args"]["trace"]
    handlers = {ev["pid"] for ev in evs
                if ev.get("args", {}).get("trace") == trace_id
                and ev["name"] == "rpc.handle:Doorbell"}
    # The same trace id reaches Doorbell handlers on two different hosts.
    assert len(handlers) == 2


def test_trace_runs_the_named_cell(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    rc, out = run_cli(capsys, "trace", "overload/load=3x/seed=17",
                      "--out", str(out_path))
    assert rc == 0
    assert "overload/load=3x/seed=17: every auditor and expect passes" in out


def test_unknown_cell_exits_nonzero_and_lists_cells(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "lease/seed=99"])
    message = str(exc.value)
    assert "no cell 'seed=99'" in message
    assert "seed=17, seed=29, seed=43, seed=61" in message


def test_attribute_fig4_reconciles_and_writes_json(capsys, tmp_path):
    import json

    from repro.obs import runtime as _obs

    out_path = tmp_path / "attr.json"
    rc, out = run_cli(capsys, "attribute", "fig4", "--messages", "60",
                      "--out", str(out_path))
    assert rc == 0
    assert "reconciliation error 0.0000%" in out
    assert "cq_drain" in out and "60 ops" in out
    doc = json.loads(out_path.read_text())
    assert doc["ops"] == 60
    assert doc["reconciliation_error"] <= 0.01
    assert abs(sum(doc["totals_ns"].values()) - doc["total_op_ns"]) \
        <= 0.01 * doc["total_op_ns"]
    assert not _obs.tracing_enabled()


def test_attribute_overload_surfaces_admission_wait(capsys):
    rc, out = run_cli(capsys, "attribute", "overload")
    assert rc == 0
    assert "overload/load=2x/seed=17: every auditor" in out
    assert "admission" in out and "5697 ops" in out
    assert "reconciliation error 0.0000%" in out


def test_profile_writes_valid_bench_doc(capsys, tmp_path):
    import json

    from repro.sim.profile import validate_bench_doc

    out_path = tmp_path / "BENCH_simcore.json"
    rc, out = run_cli(capsys, "profile", "--messages", "300",
                      "--out", str(out_path))
    assert rc == 0
    assert "events/s" in out
    assert "pingpong-client" in out
    doc = json.loads(out_path.read_text())
    assert validate_bench_doc(doc) == []
    assert doc["bench"] == "simcore"


def test_metrics_preregisters_new_series_at_zero(capsys):
    rc, out = run_cli(capsys, "metrics", "--messages", "100")
    assert rc == 0
    assert "attr_ops 0" in out
    assert "flight_records 0" in out
    assert "profile_events_per_sec 0" in out
    # Scenario-harness series exist before any runbook ever runs.
    assert "scen_cells_run 0" in out
    assert "scen_invariant_violations 0" in out
    # The drift fix: the journal gauge is underscore-flat.
    assert "proxy_journal_occupancy 0" in out
    assert "proxy_journal_occupancy_bucket" not in out


def test_metrics_reports_latency_and_ras(capsys):
    # One dump holds the ping-pong's latency and the chaos cell's RAS.
    rc, out = run_cli(capsys, "metrics", "--messages", "200",
                      "fig4", "chaos")
    assert rc == 0
    assert "# TYPE ring_one_way_ns histogram" in out
    assert 'ring_one_way_ns{quantile="0.50"}' in out
    assert 'ring_one_way_ns{quantile="0.99"}' in out
    assert "ras_poisons_injected 2" in out
    assert "# TYPE rpc_retries gauge" in out


def test_metrics_no_pool_writes_file(capsys, tmp_path):
    out_path = tmp_path / "metrics.prom"
    rc, out = run_cli(capsys, "metrics", "--messages", "100",
                      "--out", str(out_path))
    assert rc == 0
    text = out_path.read_text()
    assert "ring_one_way_ns_count 100" in text
    assert "ras_poisons_injected" not in text


def test_scenario_list_names_runbooks(capsys):
    rc, out = run_cli(capsys, "scenario", "list")
    assert rc == 0
    assert "chaos" in out and "gray" in out and "overload" in out
    assert "lambda=2/seed=11" in out


def tiny_runbook(tmp_path, name, ok_ops):
    """A one-cell runbook of five vSSD writes expecting ``ok_ops`` ok."""
    import json

    doc = {
        "name": name,
        "description": "cli smoke",
        "seeds": [5],
        "base": {
            "duration_ns": 100e6,
            "pod": {"n_hosts": 3, "n_mhds": 2,
                    "devices": [{"kind": "ssd", "owner": "h0"}]},
            "workloads": [{"driver": "vssd", "host": "h2", "ops": 5,
                           "gap_ns": 1e6}],
            "campaign": {"config": {
                "device_flaps": 0, "link_flaps": 0, "agent_crashes": 0,
                "orchestrator_restarts": 0, "mhd_degrades": 0,
                "mem_poisons": 0}},
            "expect": {"w0.vssd.ok": ["==", ok_ops]},
        },
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_scenario_run_runbook_file(capsys, tmp_path):
    import json

    rb_path = tiny_runbook(tmp_path, "cli-tiny", 5)
    out_path = tmp_path / "matrix.json"
    table_path = tmp_path / "matrix.md"
    rc, out = run_cli(capsys, "scenario", "run", str(rb_path),
                      "--out", str(out_path), "--table", str(table_path))
    assert rc == 0
    assert "PASS" in out
    result = json.loads(out_path.read_text())
    assert result["ok"] and result["runbook"] == "cli-tiny"
    assert "| PASS |" in table_path.read_text()


def test_scenario_run_failure_exits_nonzero(capsys, tmp_path):
    rb_path = tiny_runbook(tmp_path, "cli-fail", 6)
    with pytest.raises(SystemExit):
        main(["scenario", "run", str(rb_path)])
    err = capsys.readouterr().err
    assert "w0.vssd.ok" in err
    from repro.scenarios.runner import consume_failed_cells
    consume_failed_cells()


def test_inspect_runs_a_runbook_file_and_fails_a_failing_cell(capsys,
                                                               tmp_path):
    rc, out = run_cli(capsys, "trace", str(tiny_runbook(tmp_path,
                                                        "cli-tiny", 5)),
                      "--out", str(tmp_path / "trace.json"))
    assert rc == 0
    assert "cli-tiny/seed=5: every auditor and expect passes" in out
    with pytest.raises(SystemExit):
        main(["attribute", str(tiny_runbook(tmp_path, "cli-fail", 6))])
    assert "FAIL seed=5: expect w0.vssd.ok == 6" in capsys.readouterr().err
    from repro.scenarios.runner import consume_failed_cells
    consume_failed_cells()
