"""Lease-fenced failover end to end: an owner host dies mid-I/O and the
datapath client finishes every outstanding op on the successor, exactly
once, with the fencing invariant holding throughout."""

from repro.core import PciePool
from repro.faults import FaultInjector
from repro.sim import Simulator


def make_pool(seed, add):
    sim = Simulator(seed=seed)
    pool = PciePool(sim, n_hosts=3, n_mhds=2)
    add(pool)
    pool.start()
    return sim, pool


def kill_owner_mid_io(sim, pool, injector, client):
    """Partition the owner's control ring, crash its agent, and crash
    the device — detection can only come from the lease lapsing."""
    victim = client.handle.device_id
    owner = pool.owner_of(victim)
    injector.partition_host(owner)
    injector.crash_agent(owner)
    injector.crash_device(victim)
    return victim, owner


def test_ssd_ops_survive_owner_death():
    sim, pool = make_pool(101, lambda p: (p.add_ssd("h0"),
                                          p.add_ssd("h1")))
    injector = FaultInjector(pool)
    client = pool.open_ssd("h2")
    violations = []

    def invariant_watch():
        while True:
            violations.extend(pool.check_fencing_invariant())
            yield sim.timeout(1_000_000.0)

    sim.spawn(invariant_watch())

    def workload():
        yield from client.setup()
        for i in range(6):
            if i == 3:
                kill_owner_mid_io(sim, pool, injector, client)
            yield from client.write(i * 4096, b"a" * 4096)

    p = sim.spawn(workload())
    sim.run(until=p)
    assert client.ops_completed == client.ops_submitted == 6
    assert client.failovers == 1
    assert client.resubmitted >= 1       # the mid-I/O op moved hosts
    assert not client._pending           # nothing stranded
    assert violations == []
    pool.stop()


def test_accelerator_jobs_survive_owner_death():
    sim, pool = make_pool(102, lambda p: (p.add_accelerator("h0"),
                                          p.add_accelerator("h1")))
    injector = FaultInjector(pool)
    client = pool.open_accelerator("h2")

    def workload():
        yield from client.setup()
        results = []
        for i in range(4):
            if i == 2:
                kill_owner_mid_io(sim, pool, injector, client)
            r = yield from client.run_job(1, bytes([i]) * 256)
            results.append(r)
        return results

    p = sim.spawn(workload())
    sim.run(until=p)
    assert len(p.value) == 4
    assert client.ops_completed == client.ops_submitted == 4
    assert client.failovers == 1
    assert pool.check_fencing_invariant() == []
    pool.stop()


def test_partitioned_owner_self_fences_before_successor_serves():
    """Pure split-brain: the owner host stays alive (device healthy,
    servers running) but partitioned from the orchestrator.  Its lease
    lapses, the borrower moves, and the old server must reject — not
    apply — everything it still receives."""
    sim, pool = make_pool(103, lambda p: (p.add_ssd("h0"),
                                          p.add_ssd("h1")))
    injector = FaultInjector(pool)
    client = pool.open_ssd("h2")
    violations = []

    def invariant_watch():
        while True:
            violations.extend(pool.check_fencing_invariant())
            yield sim.timeout(1_000_000.0)

    sim.spawn(invariant_watch())

    def workload():
        yield from client.setup()
        first = pool.owner_of(client.handle.device_id)
        # Paced traffic so the stream straddles the ~35 ms lease lapse:
        # ops before the partition are served by the first owner, ops
        # after it must be fenced there and land on the successor.
        for i in range(8):
            if i == 3:
                # Partition only — the device keeps working for its
                # (now illegitimate) owner.  Without fencing this op
                # stream would be served by two hosts at once.
                injector.partition_host(first)
            yield from client.write(i * 4096, b"b" * 4096)
            yield sim.timeout(10_000_000.0)
        return first

    p = sim.spawn(workload())
    sim.run(until=p)
    first_owner = p.value
    assert client.ops_completed == 8
    assert client.failovers == 1
    assert pool.owner_of(client.handle.device_id) != first_owner
    assert violations == []
    # The abandoned owner's servers hold fenced (expired or revoked)
    # lease state for the moved device — they can no longer serve it.
    lease_stats = pool.export_lease_telemetry()
    assert lease_stats["lease.expired"] >= 1
    assert lease_stats["proxy.fenced_ops"] >= 1
    pool.stop()

