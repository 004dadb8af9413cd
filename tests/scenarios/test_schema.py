"""Runbook schema: strict validation, deep merge, matrix expansion."""

import json

import pytest

from repro.scenarios import (
    RunbookError,
    builtin_runbooks,
    load_runbook,
    resolve_runbook,
    runbook_from_dict,
    scenario_from_dict,
)
from repro.scenarios.schema import CampaignSpec, WorkloadSpec, merge


def minimal_scenario(**overrides):
    d = {
        "duration_ns": 1e9,
        "pod": {"n_hosts": 3, "n_mhds": 2,
                "devices": [{"kind": "ssd", "owner": "h0"}]},
        "workloads": [{"driver": "vssd", "host": "h1", "ops": 5}],
    }
    return merge(d, overrides)


# -- merge ------------------------------------------------------------------


def test_merge_recurses_into_dicts():
    base = {"pod": {"n_hosts": 4, "n_mhds": 2}, "duration_ns": 1.0}
    out = merge(base, {"pod": {"n_mhds": 3}})
    assert out == {"pod": {"n_hosts": 4, "n_mhds": 3}, "duration_ns": 1.0}
    assert base["pod"]["n_mhds"] == 2  # base untouched


def test_merge_replaces_lists_wholesale():
    base = {"workloads": [{"driver": "vssd"}, {"driver": "vaccel"}]}
    out = merge(base, {"workloads": [{"driver": "netstack"}]})
    assert out["workloads"] == [{"driver": "netstack"}]


# -- strict validation ------------------------------------------------------


def test_unknown_scenario_key_rejected():
    with pytest.raises(RunbookError, match="unknown key"):
        scenario_from_dict(minimal_scenario(workload=[]))  # typo'd key


def test_unknown_campaign_config_key_rejected():
    """A typo'd chaos knob must not silently inject nothing."""
    with pytest.raises(RunbookError, match="agent_stals"):
        scenario_from_dict(minimal_scenario(
            campaign={"config": {"agent_stals": 1}}))


def test_unknown_fault_kind_rejected():
    with pytest.raises(RunbookError, match="DeviceFlop"):
        scenario_from_dict(minimal_scenario(
            campaign={"faults": [{"kind": "DeviceFlop", "at_ns": 1.0}]}))


def test_unknown_fault_field_rejected():
    with pytest.raises(RunbookError, match="down_nss"):
        scenario_from_dict(minimal_scenario(
            campaign={"faults": [{"kind": "AgentStall", "host_id": "h0",
                                  "at_ns": 1.0, "down_nss": 2.0}]}))


def test_fault_device_alias_accepted():
    spec = scenario_from_dict(minimal_scenario(
        campaign={"faults": [{"kind": "DeviceFlap", "device": 0,
                              "at_ns": 1.0, "down_ns": 2.0}]}))
    assert spec.campaign.faults[0]["device"] == 0


def test_duration_required():
    d = minimal_scenario()
    del d["duration_ns"]
    with pytest.raises(RunbookError, match="duration_ns"):
        scenario_from_dict(d)


def test_bad_expect_operator_rejected():
    with pytest.raises(RunbookError, match="operator"):
        scenario_from_dict(minimal_scenario(
            expect={"orch.epoch": ["~=", 1]}))


def test_malformed_relative_expect_rejected():
    ref = {"axis": "lambda", "value": "1", "key": "orch.epoch", "times": 2}
    for broken, match in (
            ({k: v for k, v in ref.items() if k != "axis"}, "needs"),
            ({**ref, "scale": 2}, "unknown key"),
            ({**ref, "times": "2x"}, "not a number")):
        with pytest.raises(RunbookError, match=match):
            scenario_from_dict(minimal_scenario(
                expect={"orch.epoch": ["<=", broken]}))


def test_relative_expect_must_name_an_axis_value_at_load():
    doc = runbook_doc()
    doc["base"]["expect"] = {"orch.epoch": [
        "<=", {"axis": "lambda", "value": "3", "key": "orch.epoch",
               "times": 1}]}
    with pytest.raises(RunbookError, match="lambda=3"):
        runbook_from_dict(doc)
    doc["base"]["expect"]["orch.epoch"][1]["value"] = "2"
    assert runbook_from_dict(doc).expand()


def test_expect_dict_form_becomes_triples():
    spec = scenario_from_dict(minimal_scenario(
        expect={"orch.epoch": ["==", 1], "rpc.retries": [">=", 0]}))
    assert ("orch.epoch", "==", 1) in spec.expect
    assert ("rpc.retries", ">=", 0) in spec.expect


def test_device_kind_validated():
    with pytest.raises(RunbookError, match="gpu"):
        scenario_from_dict(minimal_scenario(
            pod={"devices": [{"kind": "gpu", "owner": "h0"}]}))


def test_netstack_needs_peer():
    with pytest.raises(RunbookError, match="peer"):
        WorkloadSpec(driver="netstack", host="h1", phase="after")


def test_netstack_must_run_after_chaos():
    with pytest.raises(RunbookError, match="after"):
        WorkloadSpec(driver="netstack", host="h1", peer="h2",
                     phase="during")


def test_open_loop_is_vssd_only():
    with pytest.raises(RunbookError, match="vssd-only"):
        WorkloadSpec(driver="vaccel", host="h1", mode="open",
                     rate_per_s=100.0, duration_ns=1e9)


def test_open_loop_needs_rate_and_duration():
    with pytest.raises(RunbookError, match="rate_per_s"):
        WorkloadSpec(driver="vssd", host="h1", mode="open")


# -- campaign draw gating ---------------------------------------------------


def test_empty_campaign_config_draws_defaults():
    """ChaosConfig defaults are non-zero, so an empty config draws."""
    assert CampaignSpec().draws_anything()


def test_zeroed_campaign_config_draws_nothing():
    zeros = {c: 0 for c in (
        "device_flaps", "link_flaps", "agent_crashes",
        "orchestrator_restarts", "mhd_crashes", "mhd_degrades",
        "mem_poisons", "host_partitions", "lease_expires", "mhd_slows",
        "link_degrades", "agent_stalls", "overload_storms")}
    assert not CampaignSpec(config=zeros).draws_anything()


# -- runbooks and expansion -------------------------------------------------


def runbook_doc():
    return {
        "name": "rb",
        "description": "test",
        "seeds": [3, 5],
        "base": minimal_scenario(),
        "axes": {
            "lambda": [{"name": "1", "patch": {"pod": {"n_mhds": 2}}},
                       {"name": "2", "patch": {"pod": {"n_mhds": 3}}}],
            "load": [{"name": "lo", "patch": {}},
                     {"name": "hi", "patch": {
                         "workloads": [{"driver": "vssd", "host": "h1",
                                        "ops": 50}]}}],
        },
    }


def test_expand_is_the_axis_seed_cross_product():
    cells = runbook_from_dict(runbook_doc()).expand()
    assert len(cells) == 2 * 2 * 2
    ids = [c.cell_id for c in cells]
    assert "lambda=1/load=lo/seed=3" in ids
    assert "lambda=2/load=hi/seed=5" in ids
    hi = next(c for c in cells if c.axes == {"lambda": "2", "load": "hi"})
    assert hi.scenario.pod.n_mhds == 3
    assert hi.scenario.workloads[0].ops == 50


def test_expand_seed_override():
    cells = runbook_from_dict(runbook_doc()).expand(seeds=[99])
    assert {c.seed for c in cells} == {99}
    assert len(cells) == 4


def test_unknown_runbook_key_rejected():
    doc = runbook_doc()
    doc["sedes"] = [1]
    with pytest.raises(RunbookError, match="sedes"):
        runbook_from_dict(doc)


def test_axis_value_needs_a_name():
    doc = runbook_doc()
    doc["axes"] = {"lambda": [{"patch": {}}]}
    with pytest.raises(RunbookError, match="name"):
        runbook_from_dict(doc)


def test_bad_base_fails_at_load_time():
    """A broken axis patch must fail when the runbook loads, not when
    some CI job finally runs that cell."""
    doc = runbook_doc()
    doc["axes"]["lambda"][0]["patch"] = {"pod": {"n_mdhs": 3}}
    with pytest.raises(RunbookError, match="n_mdhs"):
        runbook_from_dict(doc)


def test_load_runbook_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(RunbookError, match="not valid JSON"):
        load_runbook(path)


def test_resolve_runbook_unknown_name():
    with pytest.raises(RunbookError, match="no runbook named"):
        resolve_runbook("definitely-not-a-runbook")


def test_resolve_runbook_by_path(tmp_path):
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(runbook_doc()))
    assert resolve_runbook(path).name == "rb"


# -- the checked-in ports ---------------------------------------------------


def test_builtin_runbooks_load_and_expand():
    books = builtin_runbooks()
    assert set(books) == {"chaos", "gray", "lease", "overload", "ras"}
    for name, path in books.items():
        runbook = load_runbook(path)
        cells = runbook.expand()
        assert cells, name
        assert runbook.description


def test_chaos_port_matches_original_constants():
    """The checked-in chaos runbook pins the original soak's shape."""
    runbook = resolve_runbook("chaos")
    assert runbook.seeds == (11,)
    cells = runbook.expand()
    assert [c.cell_id for c in cells] == ["lambda=1/seed=11",
                                         "lambda=2/seed=11"]
    spec = cells[0].scenario
    assert spec.duration_ns == 10e9
    assert spec.campaign.config["device_flaps"] == 5
    assert spec.campaign.config["settle_ns"] == 2e9
    assert [w.phase for w in spec.workloads] == ["after"] * 3


def test_gray_port_pins_explicit_faults_and_draws_nothing():
    runbook = resolve_runbook("gray")
    spec = runbook.expand()[0].scenario
    assert not spec.campaign.draws_anything()
    kinds = [fd["kind"] for fd in spec.campaign.faults]
    assert kinds == ["MhdSlow", "AgentStall"]


def test_overload_port_caps_the_storm_path():
    runbook = resolve_runbook("overload")
    spec = runbook.expand()[0].scenario
    assert spec.policy.rebalance_spread == 2.0
    assert spec.policy.path_caps[0].cap == 1
    assert spec.workloads[0].mode == "open"
