"""TelemetryBoard: health round-trips, agent staleness."""

from repro.orchestrator.telemetry import DeviceTelemetry, TelemetryBoard


def test_mark_host_down_and_healthy_round_trip():
    board = TelemetryBoard()
    board.track(1, "h0", "nic")
    board.track(2, "h0", "ssd")
    board.track(3, "h1", "nic")
    affected = board.mark_host_down("h0")
    assert affected == [1, 2]
    assert not board.get(1).healthy and not board.get(2).healthy
    assert board.get(3).healthy
    # Second sweep is a no-op: already-down devices are not re-reported.
    assert board.mark_host_down("h0") == []
    # Repair round-trip restores each device individually.
    board.mark_healthy(1)
    board.mark_healthy(2)
    assert board.get(1).healthy and board.get(2).healthy
    assert board.mark_host_down("h0") == [1, 2]


def test_mark_health_on_unknown_device_is_ignored():
    board = TelemetryBoard()
    board.mark_healthy(99)
    board.mark_unhealthy(99)
    assert board.get(99) is None


def test_last_report_ns_distinguishes_never_from_t0():
    telemetry = DeviceTelemetry(1, "h0", "nic")
    assert telemetry.last_report_ns is None
    assert not telemetry.ever_reported
    telemetry.observe(0.5, 3, now=0.0)  # a report AT t=0 still counts
    assert telemetry.last_report_ns == 0.0
    assert telemetry.ever_reported


def test_stale_agents_includes_never_heartbeated():
    board = TelemetryBoard()
    board.expect_agent("h0", now=0.0)
    board.expect_agent("h1", now=0.0)
    board.heartbeat("h1", now=40.0)
    # Inside the grace window nobody is stale.
    assert board.stale_agents(now=50.0, timeout_ns=100.0) == []
    # h0 never heartbeated: once the window passes it is stale, not
    # invisible.  h1's heartbeat is still fresh.
    assert board.stale_agents(now=120.0, timeout_ns=100.0) == ["h0"]
    assert board.stale_agents(now=200.0, timeout_ns=100.0) == ["h0", "h1"]
    # A first heartbeat clears the registration-based staleness.
    board.heartbeat("h0", now=210.0)
    assert board.stale_agents(now=250.0, timeout_ns=100.0) == ["h1"]


def test_expect_agent_is_idempotent():
    board = TelemetryBoard()
    board.expect_agent("h0", now=0.0)
    board.expect_agent("h0", now=500.0)  # re-wire must not reset grace
    assert board.stale_agents(now=200.0, timeout_ns=100.0) == ["h0"]
