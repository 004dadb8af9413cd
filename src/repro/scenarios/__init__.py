"""Declarative chaos-runbook harness (DESIGN.md §14).

``repro.scenarios`` turns the hand-written soak pattern into config:

* :mod:`~repro.scenarios.schema` — runbooks: pod shape x workload x
  chaos campaign x policy knobs, dict/JSON-loadable, matrix-expanded
  over named axes and seeds;
* :mod:`~repro.scenarios.runner` — deterministic per-cell execution on
  the sim kernel, aggregated into a results table + JSON artifact;
* :mod:`~repro.scenarios.invariants` — always-on auditors asserted for
  every cell (exactly-once ops, zero lost assignments, zero undetected
  corruption, fencing safety, lease safety under quarantine, retry-
  budget conservation, pacer-slot conservation, parked-dispatcher
  liveness, parked-collector liveness).

Checked-in runbooks live in ``runbooks/``; ``python -m repro scenario
list|run`` is the CLI surface.
"""

from repro.scenarios.invariants import AUDITORS, build_auditors
from repro.scenarios.runner import (
    CellResult,
    MatrixResult,
    consume_failed_cells,
    run_cell,
    run_matrix,
)
from repro.scenarios.schema import (
    Cell,
    CampaignSpec,
    DeviceMix,
    PathCap,
    PodShape,
    PolicySpec,
    Runbook,
    RunbookError,
    ScenarioSpec,
    WorkloadSpec,
    builtin_runbooks,
    load_runbook,
    resolve_runbook,
    runbook_from_dict,
    scenario_from_dict,
)

__all__ = [
    "AUDITORS", "build_auditors",
    "CellResult", "MatrixResult", "consume_failed_cells",
    "run_cell", "run_matrix",
    "Cell", "CampaignSpec", "DeviceMix", "PathCap", "PodShape",
    "PolicySpec", "Runbook", "RunbookError", "ScenarioSpec",
    "WorkloadSpec", "builtin_runbooks", "load_runbook",
    "resolve_runbook", "runbook_from_dict", "scenario_from_dict",
]
