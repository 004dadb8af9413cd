"""OBS — tracing overhead guard and chaos determinism.

The observability layer must be free when disabled and nearly free when
enabled: spans are appended to a Python list off the simulated clock, so
the *simulated* results are identical and only wall-clock pays.  The CI
trace job runs the p50 guard below; the determinism check runs the chaos
runbook's first cell plain, traced and profiled, and compares the whole
outcome (fault log, verdicts, summary and sim time).
"""

import time

import numpy as np

from benchmarks.conftest import banner, run_once
from repro.channel.pingpong import run_pingpong
from repro.obs import runtime as _obs
from repro.obs.attribution import attribute_tracer
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer
from repro.scenarios import resolve_runbook, run_cell
from repro.sim.profile import KernelProfiler, profiled

N_MESSAGES = 1500


def _timed_pingpong():
    started = time.perf_counter()
    result = run_pingpong(n_messages=N_MESSAGES, seed=0)
    return result, time.perf_counter() - started


def test_tracing_overhead_and_identical_results(benchmark):
    baseline, base_wall = run_once(benchmark, _timed_pingpong)

    tracer = Tracer()
    _obs.enable_tracing(tracer)
    try:
        traced, traced_wall = _timed_pingpong()
    finally:
        _obs.disable_tracing()

    # Third configuration: tracing + always-on flight recorder, plus
    # the attribution post-pass — the full PR-8 observability stack.
    full_tracer = Tracer()
    recorder = FlightRecorder(cap_bytes=64 * 1024)
    _obs.enable_tracing(full_tracer)
    _obs.enable_flight_recorder(recorder)
    try:
        recorded, recorded_wall = _timed_pingpong()
        breakdown = attribute_tracer(full_tracer, registry=False)
    finally:
        _obs.disable_flight_recorder()
        _obs.disable_tracing()

    banner("Observability: tracing overhead on the fig4 ping-pong")
    print(f"{'':>14} {'p50 (sim ns)':>14} {'wall (s)':>10}")
    print(f"{'disabled':>14} {baseline.median_ns:>14.0f} "
          f"{base_wall:>10.3f}")
    print(f"{'enabled':>14} {traced.median_ns:>14.0f} "
          f"{traced_wall:>10.3f}")
    print(f"{'trace+flight':>14} {recorded.median_ns:>14.0f} "
          f"{recorded_wall:>10.3f}")
    print(f"spans recorded: {len(tracer.spans)}; flight buffer "
          f"{recorder.buffer_bytes()} B; attributed {breakdown.n_ops} ops")

    # Simulated time must be bit-identical — tracing never touches the
    # clock.  (Stronger than the 10% CI guard, and implies it.)
    assert np.array_equal(baseline.samples_ns, traced.samples_ns)
    assert np.array_equal(baseline.samples_ns, recorded.samples_ns)
    assert abs(traced.median_ns - baseline.median_ns) \
        <= 0.10 * baseline.median_ns
    # The full stack (phase tags + recorder + attribution) stays inside
    # the same guard: all of it runs off the simulated clock.
    assert abs(recorded.median_ns - baseline.median_ns) \
        <= 0.10 * baseline.median_ns
    # And the tracer actually saw the run.
    assert len(tracer.by_name("pingpong.round")) == N_MESSAGES
    assert breakdown.n_ops == N_MESSAGES
    assert breakdown.reconciliation_error() <= 0.01


def test_chaos_cell_identical_with_tracing_and_profiling():
    """The chaos runbook's first cell must not change when it is traced
    (with the flight recorder riding the tracer) or profiled."""
    cell = resolve_runbook("chaos").expand()[0]

    def outcome():
        r = run_cell(cell, label="chaos")
        return (r.signature, r.events, r.violations, r.expect_failures,
                r.error, r.summary, r.sim_ns)

    plain = outcome()
    assert plain[1] and not plain[2] and not plain[3] and not plain[4]
    _obs.enable_tracing(Tracer())
    _obs.enable_flight_recorder(FlightRecorder(cap_bytes=32 * 1024))
    try:
        recorded = outcome()
    finally:
        _obs.disable_flight_recorder()
        _obs.disable_tracing()
    assert recorded == plain
    with profiled(KernelProfiler()):
        profiled_outcome = outcome()
    assert profiled_outcome == plain
