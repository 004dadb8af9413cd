"""Bounded admission at the device server and overload behaviour of the
datapath clients.

The server side: at most ``max_inflight`` forwarded ops execute
concurrently per borrower queue; the excess is busy-nacked with a
retry-after hint (doorbells are never refused).  The client side:
nacked ops pace on the hint, charge re-submissions to the retry budget,
and surface a typed ``OverloadError`` when patience runs out — *before*
the op consumed queue space anywhere.  The journal-before-post invariant
has a converse: an op refused by pacing/budget/admission must leave no
journal entry for failover to replay.
"""

import pytest

from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.datapath.vssd import RemoteSsdClient
from repro.health import AimdWindow, OverloadError, RetryBudget
from repro.pcie.nic import Nic, TX_QUEUE
from repro.pcie.rings import CompletionEntry
from repro.pcie.ssd import Ssd
from repro.sim import Simulator


def make_pod(seed=2, n_hosts=2):
    sim = Simulator(seed=seed)
    pod = CxlPod(sim, PodConfig(n_hosts=n_hosts, n_mhds=1,
                                mhd_capacity=1 << 27))
    return sim, pod


def wire_nic(sim, pod, max_inflight=1, **handle_kwargs):
    nic = Nic(sim, "nic0", device_id=1, mac=0xa)
    nic.attach(pod.host("h0"))
    owner_ep, borrower_ep = RpcEndpoint.pair(pod, "h0", "h1")
    server = DeviceServer(owner_ep, max_inflight=max_inflight,
                          retry_after_ns=10_000.0)
    server.export(nic)
    handle = RemoteDeviceHandle(borrower_ep, device_id=1, **handle_kwargs)
    return nic, server, handle, (owner_ep, borrower_ep)


def finish(sim, eps):
    for ep in eps:
        ep.close()
    sim.run()


def pin(server):
    """Simulate a saturated queue: every admission slot taken."""
    server._inflight = server.max_inflight


def unpin(server):
    server._inflight = 0


# ------------------------------------------------------- bounded admission


def test_saturated_queue_busy_nacks_then_admits_on_drain():
    sim, pod = make_pod()
    nic, server, handle, eps = wire_nic(sim, pod)
    pin(server)

    def drainer():
        yield sim.timeout(30_000.0)
        unpin(server)

    def proc():
        yield from handle.write_register(Nic.REG_TX_RING, 0x42)
        return sim.now

    sim.spawn(drainer())
    p = sim.spawn(proc())
    sim.run(until=p)
    assert nic.bar.regs[Nic.REG_TX_RING] == 0x42   # eventually served
    assert server.admission_rejects >= 1
    assert handle.busy_nacks >= 1
    assert p.value >= 30_000.0                     # paced, not spinning
    finish(sim, eps)


def test_patience_exhausted_surfaces_typed_overload_error():
    sim, pod = make_pod()
    nic, server, handle, eps = wire_nic(sim, pod)
    handle.overload_retry_limit = 2
    pin(server)                                    # never drains

    def proc():
        with pytest.raises(OverloadError) as err:
            yield from handle.read_register(Nic.REG_STATUS)
        return err.value.retry_after_ns

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == 10_000.0                     # hint propagated
    assert handle.busy_nacks == 3                  # attempts 0, 1, 2
    assert handle.overload_errors == 1
    assert server.forwarded_ops == 0               # never consumed a slot
    finish(sim, eps)


def test_drained_budget_shortens_the_busy_retry_ladder():
    """Re-submissions past the first are recovery traffic: with the
    budget dry, the second nack is terminal instead of re-paced."""
    sim, pod = make_pod()
    budget = RetryBudget("h1", burst=4.0, hedge_min=0.0)
    budget.tokens = 0.0
    nic, server, handle, eps = wire_nic(sim, pod, budget=budget)
    pin(server)

    def proc():
        with pytest.raises(OverloadError):
            yield from handle.read_register(Nic.REG_STATUS)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert handle.busy_nacks == 2                  # first retry rode free
    assert budget.denied == 1
    finish(sim, eps)


def test_doorbells_bypass_admission():
    """Doorbells coalesce by max() and carry no payload: refusing one
    would turn overload into a lost submission, so they are never
    nacked even while the queue is pinned."""
    sim, pod = make_pod()
    nic, server, handle, eps = wire_nic(sim, pod)
    nic.bar.regs[Nic.REG_TX_RING] = 0x5000
    pin(server)

    def proc():
        yield from handle.ring_doorbell(TX_QUEUE, 9)
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert nic.bar.regs[Nic.REG_TX_DB] == 9
    assert handle.busy_nacks == 0
    finish(sim, eps)


# -------------------------------------------------- cooperative backpressure


def test_completions_feed_occupancy_into_the_pacer():
    sim, pod = make_pod()
    pacer = AimdWindow("h1:dev1", lo=2.0, hi=8.0, cooldown_ns=0.0)
    nic, server, handle, eps = wire_nic(sim, pod, max_inflight=64,
                                        pacer=pacer)

    def proc():
        for _ in range(3):
            yield from handle.read_register(Nic.REG_STATUS)

    p = sim.spawn(proc())
    sim.run(until=p)
    # Low-occupancy acks at the ceiling are no-ops — fast path untouched.
    assert pacer.window == 8.0
    assert pacer.decreases == 0
    pin(server)

    def nacked():
        with pytest.raises(OverloadError):
            yield from handle.read_register(Nic.REG_STATUS)

    p2 = sim.spawn(nacked())
    sim.run(until=p2)
    # Busy nacks are hard pressure: the window came down multiplicatively.
    assert pacer.decreases >= 1
    assert pacer.window < 8.0
    finish(sim, eps)


# --------------------------------- journal-before-post converse (satellite)


def wire_ssd(sim, pod, borrower="h1", **client_kwargs):
    ssd = Ssd(sim, "ssd0", device_id=10)
    ssd.attach(pod.host("h0"))
    ssd.start()
    owner_ep, borrower_ep = RpcEndpoint.pair(pod, "h0", borrower)
    server = DeviceServer(owner_ep)
    server.export(ssd)
    handle = RemoteDeviceHandle(borrower_ep, device_id=10)
    client = RemoteSsdClient(sim, pod.host(borrower), handle, pod, "h0",
                             **client_kwargs)
    return ssd, server, handle, client, (owner_ep, borrower_ep)


def overload_doorbell(handle):
    """Make the next doorbells look overload-refused (typed error)."""
    original = handle.ring_doorbell

    def refused(qid, value, parent=None):
        raise OverloadError("doorbell path", retry_after_ns=10_000.0)
        yield  # makes this a generator, like the method it replaces

    handle.ring_doorbell = refused
    return original


def test_overload_refused_op_leaves_no_journal_entry():
    """The regression ISSUE 7 pins: an op whose post was refused by the
    overload layer must be de-journaled — its caller saw the failure, so
    a later failover replaying it would duplicate a failed op."""
    sim, pod = make_pod()
    ssd, server, handle, client, eps = wire_ssd(sim, pod)
    payload = b"overload-victim!" * 64             # 1 KiB

    def proc():
        yield from client.setup()
        restore = overload_doorbell(handle)
        with pytest.raises(OverloadError):
            yield from client.write(lba=8, data=payload)
        handle.ring_doorbell = restore
        # No leaked journal entry...
        assert client._pending == {}
        # ...so failover replays nothing.
        yield from client.failover()
        assert client.resubmitted == 0
        # The client is still healthy: a fresh write goes through.
        status = yield from client.write(lba=8, data=payload)
        assert status == 0
        data = yield from client.read(lba=8, length=len(payload))
        return data

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == payload
    assert ssd.commands_completed == 2             # write + read, no replay
    assert client.ops_submitted == 3               # refused one counted too
    assert client.ops_completed == 2
    ssd.stop()
    finish(sim, eps)


def test_transport_failed_post_stays_journaled_and_replays_once():
    """The invariant's other face: a post that failed in *transport*
    (owner unreachable) keeps its journal entry, and failover replays
    it exactly once on the rebuilt queues."""
    sim, pod = make_pod()
    budget = RetryBudget("h1", burst=8.0, hedge_min=0.0)
    ssd, server, handle, client, eps = wire_ssd(sim, pod, budget=budget)
    payload = b"replayed-exactly" * 64
    original = handle.ring_doorbell

    def dead(qid, value, parent=None):
        raise RpcError("owner unreachable")
        yield

    done = {}

    def writer():
        status = yield from client.write(lba=16, data=payload)
        done["status"] = status

    def scenario():
        yield from client.setup()
        handle.ring_doorbell = dead
        sim.spawn(writer())
        yield sim.timeout(500_000.0)
        assert len(client._pending) == 1           # journaled, not lost
        assert "status" not in done
        handle.ring_doorbell = original
        yield from client.failover()
        yield sim.timeout(5_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert done["status"] == 0
    assert client.resubmitted == 1
    assert ssd.commands_completed == 1             # exactly once
    # Replays are forced spends: never refused, but the bucket drained.
    assert budget.spent == 1
    assert budget.tokens < 8.0
    ssd.stop()
    finish(sim, eps)


def test_paced_out_submitter_holds_no_sq_slot():
    """Deadlock regression: pacing must precede SQ-slot reservation.

    If a paced-out op reserved its submission index first, the doorbell
    frontier would wedge behind its unwritten entry while its window
    slot waited for completions that can only come from entries past
    the wedge — the queue stalls until the op-timeout watchdog tears it
    down with a (spurious) failover."""
    sim, pod = make_pod()
    pacer = AimdWindow("h1:dev10", lo=1.0, hi=1.0, cooldown_ns=0.0)
    ssd, server, handle, client, eps = wire_ssd(sim, pod, pacer=pacer)
    payload = b"no-slot-wedging!" * 64
    statuses = []

    def one(lba):
        status = yield from client.write(lba=lba, data=payload)
        statuses.append(status)

    def scenario():
        yield from client.setup()
        sim.spawn(one(8))
        sim.spawn(one(16))
        yield sim.timeout(5_000.0)
        # The window admits one op; the second is pacing and must not
        # have reserved an SQ slot while it waits.
        assert client._tail == 1
        assert len(client._pending) == 1
        yield sim.timeout(10_000_000.0)

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert statuses == [0, 0]                      # both completed
    assert client._tail == 2                       # second reserved on admit
    assert ssd.commands_completed == 2
    assert pacer.can_submit()                      # every slot released
    ssd.stop()
    finish(sim, eps)


def test_burst_at_the_window_floor_is_granted_whole():
    """Deadlock regression: a burst's window slots are granted together.

    With a path's pacer at its floor of 2 and nothing in flight, a vSSD
    burst of 4 that claimed its slots one at a time took 2 and waited
    for a third that only its own completions, never posted, could
    release."""
    from repro.core import PciePool

    sim = Simulator(seed=5)
    pool = PciePool(sim, n_hosts=4)
    pool.add_ssd("h0")
    pool.start()
    client = pool.open_ssd("h2")
    pacer = client.pacer
    statuses = []

    def proc():
        yield from client.setup()
        while pacer.window > pacer.lo:
            pacer.on_busy(sim.now)
            yield sim.timeout(pacer.cooldown_ns + 1.0)
        assert (pacer.window, pacer.inflight) == (2.0, 0)
        statuses.extend((yield from client.write_burst(
            [(i * 4096, bytes([i]) * 4096) for i in range(4)])))

    sim.spawn(proc())
    sim.run(until=50e6)
    assert statuses == [CompletionEntry.STATUS_OK] * 4
    assert (pacer.parked, pacer.inflight) == (0, 0)
    pool.stop()


# ----------------------------------------- hedge suppression under low budget


SLOW_FACTOR = 50_000.0
HEDGE_DEADLINE = 5_000_000.0


def test_low_budget_suppresses_hedges_but_op_still_completes():
    """Hedges are an optimization: with the budget at the hedge floor
    the watchdog stands down instead of spending the last tokens, and
    the slow op completes on its own — no hedge, no failover."""
    sim, pod = make_pod(seed=3, n_hosts=3)
    budget = RetryBudget("h2", burst=8.0, hedge_min=4.0)
    budget.tokens = 4.0                            # at the floor: no hedges
    ssd, server, handle, client, eps = wire_ssd(
        sim, pod, borrower="h2", budget=budget,
        hedge_deadline_ns=HEDGE_DEADLINE)
    payload = b"gray-band-block!" * 64

    def proc():
        yield from client.setup()
        for mhd in pod.mhds:
            mhd.slow(SLOW_FACTOR)                  # fail-slow, not fail-stop
        status = yield from client.write(lba=256, data=payload)
        for mhd in pod.mhds:
            mhd.restore_latency()
        return status

    p = sim.spawn(proc())
    sim.run(until=p)
    assert p.value == 0
    assert client.hedges == 0
    assert budget.hedges_suppressed >= 1
    assert client.failovers == 0
    assert client.ops_completed == 1
    ssd.stop()
    finish(sim, eps)
