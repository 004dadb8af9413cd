"""SIMCORE — simulator-core throughput report.

Measures **unprofiled** events per wall-second via the kernel's cheap
``events_processed`` counter — the profiler roughly doubles per-event
cost, so the headline does not pay for its own measurement.  Raw
events/s is reported, not gated: it depends on the host, and fewer
events for the same simulated result is the goal, not more events per
second.

Three unprofiled phases feed the headline:

* ``kernel`` — pure-timer stress, the kernel's ceiling (no model code);
* ``pingpong`` — the Figure 4 datapath workload (rings, CRC, links);
* ``rpc_idle`` — a parked RPC dispatcher across an idle stretch, whose
  *eliminated* empty polls are reported as ``polls_elided`` and gated.

A fourth, profiled attribution run (small ping-pong) populates the
``components``/``event_sources`` planes required by the schema and
re-proves the profiler invariant: a profiled run is bit-identical (in
simulated terms) to an unprofiled one.

Writes ``BENCH_simcore.json`` to the working directory; CI's
bench-simcore job validates its schema via ``validate_bench_doc`` and
archives it.
"""

import json
from time import perf_counter_ns

from benchmarks.conftest import banner, run_once
from repro.channel.messages import Heartbeat
from repro.channel.pingpong import run_pingpong
from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator
from repro.sim.profile import (
    BENCH_SCHEMA_KEYS,
    KernelProfiler,
    profiled,
    validate_bench_doc,
)

N_MESSAGES = 1500
ATTRIB_MESSAGES = 300


def _phase_kernel(n_procs=64, horizon_ns=2_000_000.0):
    """Pure-timer stress: kernel ceiling, zero model code per event."""
    sim = Simulator(seed=1)

    def ticker(period):
        while True:
            yield sim.timeout(period)

    for i in range(n_procs):
        sim.spawn(ticker(90.0 + 7.0 * i), name=f"stress{i}:tick")
    t0 = perf_counter_ns()
    sim.run(until=horizon_ns)
    wall_ns = perf_counter_ns() - t0
    return {"name": "kernel", "events": sim.events_processed,
            "wall_ns": wall_ns, "sim_ns": sim.now}


def _phase_pingpong():
    """Figure 4 datapath: ring encode/decode, link occupancy, jitter."""
    t0 = perf_counter_ns()
    result = run_pingpong(n_messages=N_MESSAGES, seed=0)
    wall_ns = perf_counter_ns() - t0
    return {"name": "pingpong", "events": result.events_processed,
            "wall_ns": wall_ns, "sim_ns": result.sim_ns}


def _phase_rpc_idle(idle_ns=5_000_000.0):
    """Idle RPC dispatcher: the elision phase.  Sim time is long, event
    count is tiny — the whole point — and the events the old busy-poll
    grid would have burned are reported as ``polls_elided``."""
    sim = Simulator(seed=2)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    client, server = RpcEndpoint.pair(pod, "h0", "h1")
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(idle_ns)
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    t0 = perf_counter_ns()
    sim.run(until=p)
    wall_ns = perf_counter_ns() - t0
    assert got, "parked dispatcher lost the wake-up message"
    polls_elided = server.polls_elided
    client.close()
    server.close()
    sim.run()
    return {"name": "rpc_idle", "events": sim.events_processed,
            "wall_ns": wall_ns, "sim_ns": sim.now,
            "polls_elided": polls_elided}


def _headline_workload():
    return [_phase_kernel(), _phase_pingpong(), _phase_rpc_idle()]


def test_simcore_headline_bench(benchmark):
    phases = run_once(benchmark, _headline_workload)

    # Attribution pass: a small profiled run fills the component and
    # event-source planes the schema requires (kept out of the headline
    # clock — the profiler costs ~2x per event).
    profiler = KernelProfiler()
    with profiled(profiler):
        profiler.mark_phase("attribution")
        run_pingpong(n_messages=ATTRIB_MESSAGES, seed=0)
    attrib = profiler.report()

    events = sum(p["events"] for p in phases)
    wall_ns = sum(p["wall_ns"] for p in phases)
    sim_ns = sum(p["sim_ns"] for p in phases)
    wall_s = wall_ns / 1e9
    events_per_sec = events / wall_s
    doc = {
        "bench": "simcore",
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events_per_sec,
        "sim_ns": sim_ns,
        "sim_s_per_wall_s": (sim_ns / 1e9) / wall_s,
        "polls_elided": phases[2]["polls_elided"],
        "phases": [
            {"name": p["name"], "events": p["events"],
             "wall_ns": p["wall_ns"],
             "events_per_sec": p["events"] / (p["wall_ns"] / 1e9)}
            for p in phases
        ],
        "components": attrib["components"],
        "event_sources": attrib["event_sources"],
    }

    banner("SIMCORE: simulator-core throughput")
    for p in doc["phases"]:
        print(f"  {p['name']:<10} {p['events']:>9,} events  "
              f"{p['events_per_sec']:>12,.0f} ev/s")
    print(f"  headline   {events:>9,} events  {events_per_sec:>12,.0f} ev/s")
    print(f"  polls elided: {doc['polls_elided']:,}")

    problems = validate_bench_doc(doc)
    assert problems == [], problems
    assert set(BENCH_SCHEMA_KEYS) <= set(doc)
    # Elision must actually elide: the 5 ms idle stretch would have
    # cost ~160k grid polls at the 30 ns cadence.
    assert doc["polls_elided"] > 100_000

    with open("BENCH_simcore.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote BENCH_simcore.json")


def test_profiled_run_is_bit_identical():
    """The profiler invariant that makes attribution safe to trust:
    wall-clock readings never leave the profiler, so a profiled run's
    simulated results match an unprofiled run sample for sample."""
    plain = run_pingpong(n_messages=ATTRIB_MESSAGES, seed=0)
    profiler = KernelProfiler()
    with profiled(profiler):
        measured = run_pingpong(n_messages=ATTRIB_MESSAGES, seed=0)
    assert list(plain.samples_ns) == list(measured.samples_ns)
    assert plain.events_processed == measured.events_processed

    report = profiler.report()
    assert report["bench"] == "simcore"
    assert report["events"] == measured.events_processed
    assert report["components"], "process plane saw no resumptions"
    assert report["event_sources"], "kernel plane saw no events"
    names = {row["name"] for row in report["components"]}
    assert any("pingpong" in n for n in names), names
    assert validate_bench_doc(report) == [], validate_bench_doc(report)


def test_profiler_detached_costs_one_branch():
    """Without a profiler the kernel takes the fast path — and two
    same-seed runs (one profiled, one not) agree event for event."""
    profiler = KernelProfiler()
    with profiled(profiler):
        sim = Simulator(seed=3)
        assert sim._profiler is profiler
    sim2 = Simulator(seed=3)
    assert sim2._profiler is None

    def ticker(sim, log):
        for _ in range(50):
            yield sim.timeout(1000.0)
            log.append(sim.now)

    log_profiled: list = []
    with profiled(KernelProfiler()):
        s = Simulator(seed=9)
        p = s.spawn(ticker(s, log_profiled), name="tick")
        s.run(until=p)
    log_plain: list = []
    s = Simulator(seed=9)
    p = s.spawn(ticker(s, log_plain), name="tick")
    s.run(until=p)
    assert log_profiled == log_plain
