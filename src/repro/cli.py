"""Command-line front end: run the paper's experiments directly.

Usage::

    python -m repro fig2            # Figure 2: stranded resources
    python -m repro fig3 [--payload 1024]
    python -m repro fig4 [--messages 2000]
    python -m repro sqrtn           # §2.1 pooling estimate
    python -m repro cost            # §1/§3 dollars
    python -m repro torless         # §5 rack availability
    python -m repro trace chaos     # Chrome/Perfetto trace of a target
    python -m repro attribute overload  # per-phase critical-path breakdown
    python -m repro profile         # sim-kernel profiler (events/s)
    python -m repro metrics fig4 chaos  # Prometheus-style metrics dump
    python -m repro scenario list   # show checked-in runbooks
    python -m repro scenario run gray   # run a runbook matrix
    python -m repro list            # show available experiments

Each command prints the same series the corresponding benchmark (and
the paper's figure) reports.  For the full harness with assertions, run
``pytest benchmarks/ --benchmark-only -s``.  The four inspect commands
(trace, attribute, profile, metrics) run targets: ``fig4`` or a runbook
cell (``chaos``, ``lease/seed=29``, ``overload/load=3x/seed=17``, or a
runbook JSON path).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_fig2(args) -> None:
    import numpy as np

    from repro.cluster.resources import DIMENSIONS
    from repro.cluster.stranding import run_unpooled
    from repro.cluster.vmtypes import AZURE_LIKE_CATALOG

    reports = [
        run_unpooled(AZURE_LIKE_CATALOG, n_hosts=args.hosts, seed=s)
        for s in range(args.seeds)
    ]
    print("Figure 2: stranded resources at admission pressure")
    print(f"{'resource':<12} {'stranded':>9}   paper: SSD 54%, NIC 29%")
    for dim in DIMENSIONS:
        mean = float(np.mean([r.stranded[dim] for r in reports]))
        print(f"{dim:<12} {mean:>9.1%}")


def _cmd_sqrtn(args) -> None:
    from repro.cluster.provisioning import (
        paper_sqrt_rule,
        sample_host_io_demand,
        stranding_vs_pool_size,
    )
    from repro.cluster.vmtypes import AZURE_LIKE_CATALOG

    demand = sample_host_io_demand(AZURE_LIKE_CATALOG,
                                   n_samples=args.samples, seed=0)
    for label, series in (("SSD", demand.ssd_gb),
                          ("NIC", demand.nic_gbps)):
        measured = stranding_vs_pool_size(series, quantile=98.0)
        s1 = measured[1]
        print(f"\n{label} stranding vs pool size (s1 = {s1:.1%}):")
        print(f"{'N':>4} {'measured':>10} {'paper s/sqrt(N)':>16}")
        for n in (1, 2, 4, 8, 16):
            print(f"{n:>4} {measured[n]:>10.1%} "
                  f"{paper_sqrt_rule(s1, n):>16.1%}")


def _cmd_fig3(args) -> None:
    from repro.datapath.placement import BufferPlacement
    from repro.datapath.udpbench import UdpBenchConfig, run_udp_point

    print(f"Figure 3: UDP latency-throughput, payload "
          f"{args.payload} B (local vs CXL buffers)")
    print(f"{'offered':>9} | {'local p50':>10} {'Gbps':>6} | "
          f"{'cxl p50':>10} {'Gbps':>6}")
    for load in args.loads:
        row = {}
        for placement in BufferPlacement:
            config = UdpBenchConfig(
                payload_bytes=args.payload, placement=placement,
                n_requests=args.requests, seed=11,
            )
            row[placement] = run_udp_point(config, load)
        lp = row[BufferPlacement.LOCAL]
        cp = row[BufferPlacement.CXL]
        print(f"{load:>8.0f}G | {lp.rtt_p50_ns / 1000:>8.1f}us "
              f"{lp.achieved_gbps:>6.1f} | "
              f"{cp.rtt_p50_ns / 1000:>8.1f}us "
              f"{cp.achieved_gbps:>6.1f}")


def _cmd_fig4(args) -> None:
    from repro.channel.pingpong import run_pingpong
    from repro.cxl.params import DEFAULT_TIMINGS

    result = run_pingpong(n_messages=args.messages, seed=0)
    print("Figure 4: one-way ring-channel message latency")
    print(f"theoretical floor: {DEFAULT_TIMINGS.message_floor_ns:.0f} ns"
          f"   paper median: ~600 ns")
    for q in (10, 50, 90, 99):
        print(f"  p{q:<4} {result.percentile(q):>6.0f} ns")


def _cmd_cost(args) -> None:
    from repro.analysis.costs import pooling_cost_comparison

    table = pooling_cost_comparison(args.hosts)
    print(f"Pooling fabric cost, rack of {args.hosts} hosts:")
    print(f"  PCIe switches : ${table['pcie_switch_rack_usd']:>9,.0f} "
          f"(paper: 'easily reaches $80,000')")
    print(f"  CXL pod (new) : "
          f"${table['cxl_pod_greenfield_rack_usd']:>9,.0f} "
          f"(${table['cxl_pod_greenfield_per_host_usd']:,.0f}/host)")
    print(f"  CXL pod (marginal): $0 — already paid for by memory "
          f"pooling")


def _cmd_torless(args) -> None:
    from repro.analysis.pod_availability import PodTopology
    from repro.analysis.tor import (
        dual_tor_rack,
        single_tor_rack,
        torless_rack,
    )

    pod = PodTopology(lam=args.lam, data_copies=2)
    designs = [
        single_tor_rack(),
        dual_tor_rack(),
        torless_rack(pod_availability=pod.pod_availability(),
                     n_pooled_nics=8),
    ]
    print(f"Rack designs (ToR-less uses a lambda={args.lam} pod, "
          f"availability {pod.pod_availability():.6f}):")
    print(f"{'design':<12} {'availability':>13} {'min/yr down':>12} "
          f"{'switch $':>9}")
    for design in designs:
        print(f"{design.name:<12} {design.availability:>13.6f} "
              f"{design.downtime_minutes_per_year():>12.1f} "
              f"{design.switch_cost_usd:>9,.0f}")


def _run_target(target: str, messages: int) -> str:
    """Run one inspect target; return a line saying what ran.

    ``fig4`` is ``messages`` ping-pong rounds.  Anything else is a
    runbook: a checked-in name or a JSON path runs its first cell at its
    first seed, and ``name/cell-id`` picks another cell of a checked-in
    runbook.  The run sees whatever tracer, profiler or registry the
    caller armed; a cell that fails its auditors or expects exits
    nonzero.
    """
    if target == "fig4":
        from repro.channel.pingpong import run_pingpong

        result = run_pingpong(n_messages=messages, seed=0)
        return (f"fig4: {messages} ping-pong rounds "
                f"(median {result.median_ns:.0f} ns)")
    from repro.scenarios import (
        RunbookError,
        builtin_runbooks,
        resolve_runbook,
        run_cell,
    )

    name, _, cell_id = target.partition("/")
    if name not in builtin_runbooks():
        name, cell_id = target, ""
    try:
        runbook = resolve_runbook(name)
    except RunbookError as exc:
        raise SystemExit(str(exc)) from None
    cells = runbook.expand()
    if cell_id:
        picked = [cell for cell in cells if cell.cell_id == cell_id]
        if not picked:
            raise SystemExit(
                f"runbook {runbook.name} has no cell {cell_id!r}; its "
                f"cells: {', '.join(cell.cell_id for cell in cells)}")
        cells = picked
    result = run_cell(cells[0], label=runbook.name)
    _exit_if_failed([result])
    return (f"{runbook.name}/{result.cell_id}: every auditor and expect "
            f"passes (sim {result.sim_ns / 1e9:.3f} s, faults logged: "
            f"{len(result.events)})")


def _exit_if_failed(cells) -> None:
    """Print each failed cell's violations and errors; exit 1 if any."""
    failed = [cell for cell in cells if not cell.ok]
    for cell in failed:
        for line in cell.violations + cell.expect_failures + [cell.error]:
            if line:
                print(f"FAIL {cell.cell_id}: {line}", file=sys.stderr)
    if failed:
        raise SystemExit(1)


def _run_traced(args):
    """Run ``args.target`` under a fresh tracer; return it and the line."""
    from repro.obs import runtime as _obs
    from repro.obs.trace import Tracer

    tracer = Tracer()
    _obs.enable_tracing(tracer)
    try:
        line = _run_target(args.target, args.messages)
    finally:
        _obs.disable_tracing()
    return tracer, line


def _cmd_attribute(args) -> None:
    import json

    from repro.obs.attribution import attribute_tracer, render_breakdown

    tracer, title = _run_traced(args)
    breakdown = attribute_tracer(tracer)
    print(render_breakdown(breakdown, title))
    error = breakdown.reconciliation_error()
    if error > 0.01:
        raise SystemExit(
            f"phase sum diverges from op sum by {error:.2%} (> 1%)"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(breakdown.to_dict(), fh, indent=1, sort_keys=True)
        print(f"wrote breakdown to {args.out}")


def _cmd_profile(args) -> None:
    from repro.obs import names as _names
    from repro.obs import runtime as _obs
    from repro.sim.profile import (
        KernelProfiler,
        profiled,
        validate_bench_doc,
        write_bench,
    )

    profiler = KernelProfiler()
    with profiled(profiler):
        for target in args.targets:
            profiler.mark_phase(target)
            print(_run_target(target, args.messages))
    report = profiler.report(top=args.top)
    print(profiler.render(top=args.top))
    _obs.METRICS.gauge(_names.PROFILE_EVENTS_PER_SEC).set(
        report["events_per_sec"])
    _obs.METRICS.gauge(_names.PROFILE_SIM_PER_WALL).set(
        report["sim_s_per_wall_s"])
    if args.out:
        problems = validate_bench_doc(report)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            raise SystemExit(1)
        write_bench(report, args.out)
        print(f"wrote {args.out}")


def _cmd_trace(args) -> None:
    import json

    from repro.obs.export import export_chrome_trace, validate_chrome_trace

    tracer, line = _run_traced(args)
    print(line)
    n_events = export_chrome_trace(tracer, args.out)
    with open(args.out) as fh:
        problems = validate_chrome_trace(json.load(fh))
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        raise SystemExit(1)
    print(f"wrote {n_events} events / {len(tracer.traces())} traces to "
          f"{args.out} — load in https://ui.perfetto.dev")


def _cmd_metrics(args) -> None:
    from repro.obs import names as _names
    from repro.obs import runtime as _obs
    from repro.obs.export import render_prometheus

    _obs.reset_metrics()
    # Pre-register the whole catalog so every series renders (at zero)
    # even when no target exercises its subsystem.
    _names.preregister(_obs.METRICS)
    for target in args.targets:
        _run_target(target, args.messages)
    text = render_prometheus(_obs.METRICS)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.out}")
    else:
        print(text, end="")


def _cmd_scenario_list(args) -> None:
    from repro.scenarios import builtin_runbooks, load_runbook

    runbooks = builtin_runbooks()
    if not runbooks:
        print("no runbooks checked in")
        return
    for name in sorted(runbooks):
        runbook = load_runbook(runbooks[name])
        cells = runbook.expand()
        print(f"{name:<10} {len(cells):>2} cells  "
              f"seeds={list(runbook.seeds)}")
        print(f"           {runbook.description}")
        for cell in cells:
            print(f"           - {cell.cell_id}")


def _cmd_scenario_run(args) -> None:
    import json
    import os

    from repro.obs import runtime as _obs
    from repro.obs.flight import FlightRecorder
    from repro.obs.trace import Tracer
    from repro.scenarios import resolve_runbook, run_matrix

    runbook = resolve_runbook(args.runbook)
    # Mirror benchmarks/conftest.py: with FLIGHT_POSTMORTEM set, a
    # failing cell dumps its flight-recorder bundle for CI to upload.
    postmortem = os.environ.get("FLIGHT_POSTMORTEM")
    had_tracer = _obs.tracing_enabled()
    if postmortem:
        if not had_tracer:
            _obs.enable_tracing(Tracer())
        _obs.enable_flight_recorder(FlightRecorder())
    try:
        result = run_matrix(runbook, seeds=args.seed or None,
                            workers=args.workers)
    finally:
        if postmortem:
            _obs.disable_flight_recorder()
            if not had_tracer:
                _obs.disable_tracing()
    table = result.render_table()
    print(table)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.table:
        with open(args.table, "w") as fh:
            fh.write(table + "\n")
        print(f"wrote {args.table}")
    _exit_if_failed(result.cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the paper's experiments from the "
                    "command line.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("fig2", help="Figure 2: stranded resources")
    p.add_argument("--hosts", type=int, default=48)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(fn=_cmd_fig2)

    p = sub.add_parser("sqrtn", help="§2.1 sqrt(N) pooling estimate")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(fn=_cmd_sqrtn)

    p = sub.add_parser("fig3", help="Figure 3: UDP latency-throughput")
    p.add_argument("--payload", type=int, default=1024)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--loads", type=float, nargs="+",
                   default=[2.0, 10.0, 25.0])
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("fig4", help="Figure 4: message latency")
    p.add_argument("--messages", type=int, default=2000)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("cost", help="§1/§3 cost comparison")
    p.add_argument("--hosts", type=int, default=32)
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("torless", help="§5 rack availability")
    p.add_argument("--lam", type=int, default=4)
    p.set_defaults(fn=_cmd_torless)

    target_help = ("fig4 (the ping-pong) or a runbook: a checked-in "
                   "name (its first cell), name/cell-id (see 'scenario "
                   "list') or a JSON path")

    p = sub.add_parser(
        "trace",
        help="run a target with tracing on; export Chrome JSON",
    )
    p.add_argument("target", help=target_help)
    p.add_argument("--messages", type=int, default=200,
                   help="ping-pong rounds for fig4")
    p.add_argument("--out", default="trace.json")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "attribute",
        help="run a target with tracing on; print the per-phase "
             "critical-path latency breakdown",
    )
    p.add_argument("target", help=target_help)
    p.add_argument("--messages", type=int, default=200,
                   help="ping-pong rounds for fig4")
    p.add_argument("--out", default=None,
                   help="also write the breakdown as JSON")
    p.set_defaults(fn=_cmd_attribute)

    p = sub.add_parser(
        "profile",
        help="run targets under the sim-kernel profiler; print "
             "events/s and per-component wall-time attribution",
    )
    p.add_argument("targets", nargs="*", default=["fig4"],
                   help=target_help + "; one phase each (default: fig4)")
    p.add_argument("--messages", type=int, default=2000,
                   help="ping-pong rounds for fig4")
    p.add_argument("--top", type=int, default=12,
                   help="rows per attribution table")
    p.add_argument("--out", default=None,
                   help="write a BENCH_simcore.json document")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "metrics",
        help="run targets; dump Prometheus-style metrics",
    )
    p.add_argument("targets", nargs="*", default=["fig4"],
                   help=target_help + " (default: fig4)")
    p.add_argument("--messages", type=int, default=2000,
                   help="ping-pong rounds for fig4")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "scenario",
        help="declarative runbooks: expand a scenario matrix, run every "
             "cell under the invariant auditors",
    )
    scen_sub = p.add_subparsers(dest="scenario_command", required=True)
    sp = scen_sub.add_parser("list", help="list checked-in runbooks")
    sp.set_defaults(fn=_cmd_scenario_list)
    sp = scen_sub.add_parser(
        "run",
        help="run a runbook by name (checked-in) or path (.json)",
    )
    sp.add_argument("runbook",
                    help="runbook name (see 'scenario list') or a path "
                         "to a runbook JSON file")
    sp.add_argument("--seed", type=int, action="append", default=[],
                    help="override the runbook's seed axis "
                         "(repeatable)")
    sp.add_argument("--workers", type=int, default=1,
                    help="run matrix cells in N parallel processes "
                         "(cells are independent sims; results merge "
                         "identically to a serial run)")
    sp.add_argument("--out", default=None,
                    help="write the aggregated matrix as JSON")
    sp.add_argument("--table", default=None,
                    help="write the aggregated matrix as markdown")
    sp.set_defaults(fn=_cmd_scenario_run)

    sub.add_parser("list", help="list experiments")

    args = parser.parse_args(argv)
    if args.command is None or args.command == "list":
        parser.print_help()
        return 0
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
