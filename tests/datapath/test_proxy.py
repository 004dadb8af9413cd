"""Tests for MMIO forwarding: handles and the device server."""

import pytest

from repro.channel.messages import MmioWrite
from repro.channel.rpc import RpcEndpoint
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import (
    DeviceGoneError,
    DeviceServer,
    DeviceWithdrawnError,
    FencedError,
    FenceSignals,
    LocalDeviceHandle,
    RemoteDeviceHandle,
)
from repro.health import OverloadError
from repro.pcie.nic import Nic, TX_QUEUE
from repro.sim import Simulator


@pytest.fixture()
def setup():
    sim = Simulator()
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    nic = Nic(sim, "nic0", device_id=1, mac=0xa)
    nic.attach(pod.host("h0"))
    # h0 owns the NIC; h1 borrows it.
    owner_ep, remote_ep = RpcEndpoint.pair(pod, "h0", "h1")
    server = DeviceServer(owner_ep)
    server.export(nic)
    handle = RemoteDeviceHandle(remote_ep, device_id=1)
    return sim, pod, nic, server, handle, (owner_ep, remote_ep)


def teardown(sim, endpoints):
    for ep in endpoints:
        ep.close()
    sim.run()


def test_local_handle_mmio(setup):
    sim, pod, nic, server, _handle, eps = setup
    local = LocalDeviceHandle(nic)
    assert not local.is_remote

    def proc():
        yield from local.write_register(Nic.REG_TX_RING, 0x5000)
        value = yield from local.read_register(Nic.REG_TX_RING)
        return value

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == 0x5000
    teardown(sim, eps)


def test_remote_write_and_read_register(setup):
    sim, pod, nic, server, handle, eps = setup
    assert handle.is_remote

    def proc():
        yield from handle.write_register(Nic.REG_TX_RING, 0x7000)
        value = yield from handle.read_register(Nic.REG_TX_RING)
        return value

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == 0x7000
    assert nic.bar.regs[Nic.REG_TX_RING] == 0x7000
    assert server.forwarded_ops == 2
    teardown(sim, eps)


def test_remote_doorbell_reaches_device(setup):
    sim, pod, nic, server, handle, eps = setup
    nic.bar.regs[Nic.REG_TX_RING] = 0x5000  # pre-configured

    def proc():
        yield from handle.ring_doorbell(TX_QUEUE, 17)
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert nic.bar.regs[Nic.REG_TX_DB] == 17
    teardown(sim, eps)


def test_remote_doorbell_latency_submicrosecond(setup):
    sim, pod, nic, server, handle, eps = setup
    t_applied = {}
    original = nic.on_mmio_write

    def spy(offset, value):
        original(offset, value)
        if offset == Nic.REG_TX_DB:
            t_applied["t"] = sim.now

    nic.on_mmio_write = spy

    def proc():
        t0 = sim.now
        yield from handle.ring_doorbell(TX_QUEUE, 1)
        return t0

    p = sim.spawn(proc())
    sim.run(until=p)
    sim.run(until=sim.timeout(100_000.0))
    # Channel one-way (~600ns) + MMIO write (200ns): must stay sub-2us,
    # the "small control-plane premium" of pooling.
    forwarding_latency = t_applied["t"] - p.value
    assert forwarding_latency < 2_000.0
    assert forwarding_latency > 500.0
    teardown(sim, eps)


def test_unknown_device_rejected(setup):
    sim, pod, nic, server, handle, eps = setup
    bad = RemoteDeviceHandle(handle.endpoint, device_id=999)

    def proc():
        try:
            yield from bad.write_register(Nic.REG_TX_RING, 1)
        except DeviceGoneError as exc:
            return exc.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == DeviceServer.STATUS_UNKNOWN_DEVICE
    teardown(sim, eps)


def test_failed_device_reported(setup):
    sim, pod, nic, server, handle, eps = setup
    nic.fail()

    def proc():
        try:
            yield from handle.write_register(Nic.REG_TX_RING, 1)
        except DeviceGoneError as exc:
            return exc.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == DeviceServer.STATUS_FAILED_DEVICE
    teardown(sim, eps)


def test_withdraw_makes_device_unknown(setup):
    sim, pod, nic, server, handle, eps = setup
    server.withdraw(1)
    assert server.exported_ids == []

    def proc():
        try:
            yield from handle.read_register(Nic.REG_STATUS)
        except DeviceGoneError as exc:
            return exc.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == DeviceServer.STATUS_UNKNOWN_DEVICE
    teardown(sim, eps)


# --------------------------------------------------------- error taxonomy


def test_withdrawn_device_raises_fatal_subclass(setup):
    """Withdrawal is permanent: clients must not retry it blindly."""
    sim, pod, nic, server, handle, eps = setup
    server.withdraw(1)

    def proc():
        try:
            yield from handle.write_register(Nic.REG_TX_RING, 1)
        except DeviceWithdrawnError:
            return "withdrawn"
        except DeviceGoneError:
            return "generic"

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == "withdrawn"
    assert issubclass(DeviceWithdrawnError, DeviceGoneError)
    assert issubclass(FencedError, DeviceGoneError)
    teardown(sim, eps)


# --------------------------------------------------------------- fencing


def test_stale_token_is_fenced(setup):
    sim, pod, nic, server, handle, eps = setup
    server.set_lease(1, token=5, expires_at_ns=1e15)
    handle.token = 4          # stale epoch, no resolver to recover with

    def proc():
        try:
            yield from handle.write_register(Nic.REG_TX_RING, 1)
        except FencedError as exc:
            return exc.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == DeviceServer.STATUS_FENCED
    assert server.fenced_ops == 1
    assert nic.bar.regs.get(Nic.REG_TX_RING, 0) == 0   # never applied
    teardown(sim, eps)


def test_expired_lease_self_fences_even_with_right_token(setup):
    """The split-brain half: past expiry the owner refuses to serve even
    the correct token — it cannot know whether a successor started."""
    sim, pod, nic, server, handle, eps = setup
    server.set_lease(1, token=5, expires_at_ns=-1.0)
    handle.token = 5

    def proc():
        try:
            yield from handle.write_register(Nic.REG_TX_RING, 1)
        except FencedError:
            return "fenced"

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == "fenced"
    teardown(sim, eps)


def test_revoked_lease_tombstone_fences(setup):
    sim, pod, nic, server, handle, eps = setup
    server.set_lease(1, token=5, expires_at_ns=1e15)
    server.revoke_lease(1)
    handle.token = 5

    def proc():
        try:
            yield from handle.read_register(Nic.REG_STATUS)
        except FencedError:
            return "fenced"

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == "fenced"
    assert server.lease_snapshot() == {1: None}
    teardown(sim, eps)


def test_unleased_device_serves_any_token(setup):
    """Legacy / hand-wired deployments never arm fencing: a device with
    no lease state serves regardless of the token presented."""
    sim, pod, nic, server, handle, eps = setup
    handle.token = 42

    def proc():
        yield from handle.write_register(Nic.REG_TX_RING, 0x9000)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert nic.bar.regs[Nic.REG_TX_RING] == 0x9000
    assert server.fenced_ops == 0
    teardown(sim, eps)


def test_fence_replay_recovers_via_resolver(setup):
    """A fenced op re-resolves the current (endpoint, token) and replays
    the same op id — the caller never sees the fence."""
    sim, pod, nic, server, handle, eps = setup
    server.set_lease(1, token=7, expires_at_ns=1e15)
    handle.token = 3
    handle.resolver = lambda: (handle.endpoint, 7)

    def proc():
        yield from handle.write_register(Nic.REG_TX_RING, 0xabc)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert nic.bar.regs[Nic.REG_TX_RING] == 0xabc
    assert handle.fence_replays >= 1
    assert handle.token == 7
    teardown(sim, eps)


def test_fenced_doorbell_nacked_out_of_band(setup):
    sim, pod, nic, server, handle, eps = setup
    server.set_lease(1, token=9, expires_at_ns=1e15)
    handle.token = 2
    nacks = []
    FenceSignals.attach(handle.endpoint).subscribe(
        1, lambda msg: nacks.append(msg))

    def proc():
        yield from handle.ring_doorbell(TX_QUEUE, 3)
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(nacks) == 1
    assert nacks[0].token == 9        # carries the current epoch
    assert Nic.REG_TX_DB not in nic.bar.regs or \
        nic.bar.regs[Nic.REG_TX_DB] != 3
    teardown(sim, eps)


# ------------------------------------------------------------ dedup journal


def test_duplicate_op_id_not_reapplied(setup):
    sim, pod, nic, server, handle, eps = setup
    applied = []
    original = nic.on_mmio_write

    def spy(offset, value):
        original(offset, value)
        applied.append((offset, value))

    nic.on_mmio_write = spy

    def proc():
        msg = MmioWrite(request_id=0, device_id=1,
                        addr=Nic.REG_TX_RING, value=0x77,
                        op_id=1234, token=0)
        first = yield from handle.endpoint.call_with_retry(
            msg, timeout_ns=2_000_000.0, max_attempts=4)
        second = yield from handle.endpoint.call_with_retry(
            msg, timeout_ns=2_000_000.0, max_attempts=4)
        return first.status, second.status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == (DeviceServer.STATUS_OK, DeviceServer.STATUS_OK)
    assert len(applied) == 1          # second delivery was suppressed
    assert server.dup_suppressed == 1
    teardown(sim, eps)


def test_dedup_journal_is_bounded_fifo(setup):
    sim, pod, nic, server, handle, eps = setup
    server.journal_cap = 4

    def proc():
        for op_id in range(1, 8):      # 7 distinct ops through a cap of 4
            yield from handle.endpoint.call_with_retry(
                MmioWrite(request_id=0, device_id=1,
                          addr=Nic.REG_TX_RING, value=op_id,
                          op_id=op_id, token=0),
                timeout_ns=2_000_000.0, max_attempts=4)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(server._journal) == 4
    assert sorted(server._journal) == [4, 5, 6, 7]   # oldest evicted
    teardown(sim, eps)


def test_journal_cap_is_constructor_configurable(setup):
    sim, pod, nic, server, handle, eps = setup
    with pytest.raises(ValueError):
        DeviceServer(server.endpoint, journal_cap=0)
    server.journal_cap = 3

    def proc():
        for op_id in range(1, 6):      # 5 ops through a cap of 3
            yield from handle.endpoint.call_with_retry(
                MmioWrite(request_id=0, device_id=1,
                          addr=Nic.REG_TX_RING, value=op_id,
                          op_id=op_id, token=0),
                timeout_ns=2_000_000.0, max_attempts=4)

    p = sim.spawn(proc())
    sim.run(until=p)
    # Occupancy tracks the journal, and every overflow is counted: an
    # eviction rate racing active hedges means the cap is sized too
    # small to keep hedged replays recognizable.
    assert server.journal_occupancy == 3
    assert server.journal_evictions == 2
    teardown(sim, eps)


# ------------------------------------------- both verbs, every outcome


def _busy_until_drained(sim, nic, server, handle):
    server._inflight = server.max_inflight      # every admission slot taken

    def drain():
        yield sim.timeout(30_000.0)             # before the paced retry
        server._inflight = 0

    sim.spawn(drain())


def _busy_forever(sim, nic, server, handle):
    server._inflight = server.max_inflight
    handle.overload_retry_limit = 2


def _stale_token(sim, nic, server, handle):
    server.set_lease(1, token=7, expires_at_ns=1e15)
    handle.token = 3
    handle.resolver = lambda: (handle.endpoint, 7)


def _withdrawn(sim, nic, server, handle):
    server.withdraw(1)


def _failed(sim, nic, server, handle):
    nic.fail()


def _one_op_id(sim, nic, server, handle):
    handle.op_id_source = lambda: 77


OK = "ok"

#: outcome -> (arrange, calls, result, counts): the verb runs ``calls``
#: times and gives ``result`` (OK, or the error it raises); ``counts``
#: are then (device accesses, journal entries, busy nacks, fence
#: replays, duplicates replayed).
FORWARDED_OUTCOMES = {
    "ok": (None, 1, OK, (1, 1, 0, 0, 0)),
    "busy_then_admitted": (_busy_until_drained, 1, OK, (1, 1, 1, 0, 0)),
    "busy_patience_exhausted": (_busy_forever, 1, OverloadError,
                                (0, 0, 3, 0, 0)),
    "fence_replay": (_stale_token, 1, OK, (1, 1, 0, 1, 0)),
    "unknown_device": (_withdrawn, 1, DeviceWithdrawnError, (0, 0, 0, 0, 0)),
    "failed_device": (_failed, 1, DeviceGoneError, (0, 1, 0, 0, 0)),
    "duplicate_op_id": (_one_op_id, 2, OK, (1, 1, 0, 0, 1)),
}


@pytest.mark.parametrize("outcome", list(FORWARDED_OUTCOMES))
@pytest.mark.parametrize("verb", ["write", "read"])
def test_both_verbs_through_every_forwarded_outcome(setup, verb, outcome):
    sim, pod, nic, server, handle, eps = setup
    arrange, calls, result, counts = FORWARDED_OUTCOMES[outcome]
    nic.bar.regs[Nic.REG_TX_RING] = 0x17
    if arrange is not None:
        arrange(sim, nic, server, handle)

    def proc():
        try:
            for _ in range(calls):
                if verb == "write":
                    yield from handle.write_register(Nic.REG_TX_RING, 0x42)
                else:
                    value = yield from handle.read_register(Nic.REG_TX_RING)
                    assert value == 0x17
        except (DeviceGoneError, OverloadError) as exc:
            return type(exc)
        return OK

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value is result
    if result is OK:
        assert nic.bar.regs[Nic.REG_TX_RING] == (
            0x42 if verb == "write" else 0x17)
    assert (nic.mmio_writes + nic.mmio_reads, server.journal_occupancy,
            handle.busy_nacks, handle.fence_replays,
            server.dup_suppressed) == counts
    teardown(sim, eps)
