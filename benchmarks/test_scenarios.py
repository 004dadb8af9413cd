"""Scenario matrix: every checked-in runbook, every cell, all invariants.

The runbooks (``repro/scenarios/runbooks/``) are the repo's only soak
harness: chaos (fail-stop campaign), gray (fail-slow MHD and stalled
agent), overload (open-loop 2x/3x load), lease (owner death mid-I/O)
and ras (MHD loss at lambda=1, degraded mode at lambda=0).  This
benchmark expands each runbook into its matrix, runs every cell on the
sim kernel under the always-on invariant auditors, and gates on every
auditor and every expect, relative expects included — then re-runs
every cell in two worker processes to prove same-seed determinism
(bit-identical fault logs, summaries and verdicts) and that a parallel
matrix merges identically to a serial one.

Each runbook runs at the seeds its ``seeds`` field lists: chaos at 11
and ras at 23 (their campaigns are *drawn*, and those are the schedules
their pinned faults and expects were written against), gray at 17
(nothing in it draws from the seed), and overload and lease at 17, 29,
43 and 61 (overload's storm-path refusals and lease's drawn partitions
and lapses move with the seed, and their gates must hold at each).

Emits ``BENCH_scenarios.json`` (every cell's summary) and
``SCEN_matrix.md`` (the aggregated EXPERIMENTS.md-style table) for CI
to archive.
"""

import json

from repro.scenarios import builtin_runbooks, load_runbook, run_matrix

from .conftest import banner, run_once


def run_all_matrices(workers=1):
    return {name: run_matrix(load_runbook(path), workers=workers)
            for name, path in builtin_runbooks().items()}


def test_scenario_matrices(benchmark):
    results = run_once(benchmark, run_all_matrices)

    tables = []
    for name, matrix in results.items():
        banner(f"Scenario matrix: {name}")
        table = matrix.render_table()
        print(table)
        tables.append(f"## {name}\n\n{matrix.description}\n\n{table}")
        for cell in matrix.cells:
            assert cell.ok, (
                f"{name}/{cell.cell_id}: "
                f"violations={cell.violations} "
                f"expect_failures={cell.expect_failures} "
                f"error={cell.error}")

    # Same-seed determinism: every cell re-runs bit-identical (fault
    # log, summary, verdicts), in a process pool, so a parallel matrix
    # must also merge identically to the serial one.
    for name, rerun in run_all_matrices(workers=2).items():
        assert rerun.to_dict() == results[name].to_dict(), name
        print(f"determinism: {name} reran {len(rerun.cells)} cells "
              "bit-identical in 2 worker processes")

    payload = {
        "matrices": {name: matrix.to_dict()
                     for name, matrix in results.items()},
    }
    with open("BENCH_scenarios.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open("SCEN_matrix.md", "w") as fh:
        fh.write("# Scenario matrices\n\n" + "\n\n".join(tables) + "\n")
    print("wrote BENCH_scenarios.json, SCEN_matrix.md")
