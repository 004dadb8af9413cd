"""Event-driven dispatcher wakeups (poll elision).

An idle :class:`RpcEndpoint` dispatcher parks on one watchdog timeout
registered under its ring's notify key; the peer's :class:`RingSender`
fires it early after every publish (``sim.notify``).  An idle endpoint
therefore schedules *zero* empty-poll events between messages, while
first-message latency stays at base-poll scale: the notify carries the
sender's published count, so a dispatcher that was awake when the
notify fired keeps base-rate polling across the NT-store landing
window instead of parking and stranding the message until the
watchdog.  The watchdog itself only bounds a wakeup the notify missed.
"""

from repro.channel.messages import Heartbeat
from repro.channel.rpc import RpcEndpoint
from repro.cxl.params import PARK_WATCHDOG_NS, RECV_POLL_NS
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pair(seed=0):
    sim = Simulator(seed)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    a, b = RpcEndpoint.pair(pod, "h0", "h1")
    return sim, a, b


def close(sim, *eps):
    for ep in eps:
        ep.close()
    sim.run()


def test_idle_endpoint_schedules_no_empty_polls():
    """A 50 ms idle stretch costs a handful of watchdog parks, not the
    ~1.6 M empty polls a 30 ns busy-poll grid would burn."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(50_000_000.0)      # 50 ms idle
        t0 = sim.now
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(100_000.0)
        return t0

    p = sim.spawn(proc())
    sim.run(until=p)
    assert got, "message lost by the parked dispatcher"
    assert server.parks >= 1
    # The watchdog bounds parked spans, so an idle dispatcher wakes
    # ~100x over 50 ms — against ~1.6 M grid polls.  Allow generous
    # slack for startup and landing-window polls.
    assert server.empty_polls < 1_000
    assert server.polls_elided > 100_000
    # Delivery latency after the notify wake stays at poll scale.
    assert got[0] - p.value < 100 * RECV_POLL_NS
    close(sim, client, server)


def test_notify_wakes_parked_dispatcher_early():
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(10_000_000.0)
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(100_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert server.notify_wakeups >= 1
    close(sim, client, server)


def test_publish_during_poll_is_not_stranded():
    """The commit-to-landing race: a publish whose notify fires while
    the dispatcher is awake (mid-poll, no waiter registered) must still
    be delivered at poll scale — the pending-count check keeps the
    dispatcher polling instead of parking until the watchdog."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        # t=0: the dispatcher's very first poll is in flight right now.
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(50_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert got[0] < 10_000.0, f"stranded until watchdog: {got[0]} ns"
    close(sim, client, server)


def test_missed_notify_is_caught_by_the_watchdog(monkeypatch):
    """With the sender's notify silenced, a parked dispatcher still
    delivers within one watchdog period of the send."""
    sim, client, server = make_pair()
    monkeypatch.setattr(sim, "notify", lambda key, state=None: 0)
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(10_250_000.0)      # send mid-park
        t0 = sim.now
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(2 * PARK_WATCHDOG_NS)
        return t0

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert server.notify_wakeups == 0
    # The store lands ~1 us after the send starts; one poll follows the
    # watchdog.
    assert got[0] - p.value < PARK_WATCHDOG_NS + 10_000.0
    close(sim, client, server)


def test_burst_is_batch_drained_in_order():
    """A burst of fire-and-forget messages is delivered completely and
    in order through the dispatcher's drain pass."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(msg.request_id))

    def proc():
        yield sim.timeout(5_000_000.0)       # let the dispatcher park
        for i in range(24):
            yield from client.send(Heartbeat(request_id=i,
                                             timestamp_us=0, healthy=1))
        yield sim.timeout(2_000_000.0)

    p = sim.spawn(proc())
    sim.run(until=p)
    assert got == list(range(24))
    close(sim, client, server)


def test_elision_is_deterministic_across_runs():
    def run_once():
        sim, client, server = make_pair(seed=11)
        arrivals = []
        server.on(Heartbeat, lambda msg: arrivals.append(sim.now))

        def proc():
            for i in range(5):
                yield sim.timeout(250_000.0 * (i + 1))
                yield from client.send(Heartbeat(request_id=i,
                                                 timestamp_us=0, healthy=1))
            yield sim.timeout(1_000_000.0)

        p = sim.spawn(proc())
        sim.run(until=p)
        stats = (server.parks, server.notify_wakeups, server.empty_polls,
                 server.messages_handled)
        close(sim, client, server)
        return arrivals, stats

    assert run_once() == run_once()
