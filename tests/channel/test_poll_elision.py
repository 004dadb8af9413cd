"""Event-driven dispatcher wakeups (poll elision).

An idle :class:`RpcEndpoint` dispatcher parks on its receive ring's
``wake`` event, with no timeout; the peer's :class:`RingSender`
triggers it on every publish and records its count on the receiver
(``published``).  An idle endpoint therefore schedules *zero*
empty-poll events between messages, while first-message latency stays
at base-poll scale: a dispatcher that was awake when a publish
committed sees ``published`` ahead of its consumed count and keeps
base-rate polling across the NT-store landing window instead of
parking and stranding the message.
"""

from repro.channel.messages import Heartbeat
from repro.channel.rpc import RpcEndpoint
from repro.cxl.link import LinkDownError
from repro.cxl.params import RECV_POLL_NS
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pair(seed=0, n_slots=64):
    sim = Simulator(seed)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    a, b = RpcEndpoint.pair(pod, "h0", "h1", n_slots=n_slots)
    return sim, a, b


def close(sim, *eps):
    for ep in eps:
        ep.close()
    sim.run()


def test_idle_endpoint_schedules_no_empty_polls():
    """A 50 ms idle stretch costs one park per dispatcher and a handful
    of kernel events at bring-up, not the ~1.6 M empty polls a 30 ns
    busy-poll grid would burn; the message after it is delivered as
    fast as ever."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    sim.run(until=50_000_000.0)              # 50 ms idle
    assert sim.events_processed < 50
    assert server.parks == 1

    def proc():
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(100_000.0)

    sent_at = sim.now
    sim.run(until=sim.spawn(proc()))
    assert got, "message lost by the parked dispatcher"
    # One park for the idle stretch, one after the message.
    assert server.parks <= 2
    assert server.empty_polls < 50
    assert server.polls_elided > 1_000_000
    # Woken at the publish: one NT store plus one uncached poll.
    assert got[0] - sent_at == 468.5
    close(sim, client, server)


def test_notify_wakes_parked_dispatcher_early():
    """The publish itself wakes a parked dispatcher: the message is
    delivered at poll scale after a 10 ms park."""
    sim, client, server = make_pair()
    got = []
    server.on(Heartbeat, lambda msg: got.append(sim.now))

    def proc():
        yield sim.timeout(10_000_000.0)
        t0 = sim.now
        yield from client.send(Heartbeat(request_id=1,
                                         timestamp_us=0, healthy=1))
        yield sim.timeout(100_000.0)
        return t0

    p = sim.spawn(proc())
    sim.run(until=p)
    assert len(got) == 1
    assert server.parks >= 1
    assert got[0] - p.value < 100 * RECV_POLL_NS
    assert server.rx.wake is not None        # parked again afterwards
    close(sim, client, server)
    assert server.rx.wake is None            # closing unparks it


def test_publish_during_poll_is_not_stranded():
    """The commit-to-landing race: a publish that commits while the
    dispatcher is awake (mid-poll, no wake event pending) must still be
    delivered at poll scale — the published-count check keeps the
    dispatcher polling instead of parking with no wake-up to come."""
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
    assert got[0] < 10_000.0, f"stranded: {got[0]} ns"
    close(sim, client, server)


def refill_after_failed_progress(monkeypatch, fail_publish):
    """Run an 8-slot pair whose receiver's first progress publish is
    failed by ``fail_publish(sim, rx)``, then refill the ring twice over.

    Returns ``(server, owed)``: ``owed`` holds, for each park of the
    server's dispatcher, whether a progress publish was still owed.
    """
    sim, client, server = make_pair(n_slots=8)
    rx = server.rx
    publish = rx._publish_progress
    failed = []

    def publish_progress():
        if not failed:
            failed.append(sim.now)
            fail_publish(sim, rx)
        yield from publish()

    monkeypatch.setattr(rx, "_publish_progress", publish_progress)
    owed = []
    make_event = sim.event

    def event(name=""):
        if name == "rpc-park" and sim.active_process is server._dispatcher:
            owed.append(rx._progress_dirty)
        return make_event(name)

    monkeypatch.setattr(sim, "event", event)
    got = []
    server.on(Heartbeat, lambda msg: got.append(msg.request_id))

    def send(ids):
        for i in ids:
            yield from client.send(Heartbeat(request_id=i,
                                             timestamp_us=0, healthy=1))

    # Two messages reach the first progress boundary, whose publish
    # fails; the dispatcher then parks with nothing left owed.
    sim.run(until=sim.spawn(send(range(2))))
    sim.run(until=sim.now + 1_000_000.0)
    assert got == [0, 1]
    assert failed and rx.deferred_progress >= 1
    assert rx.wake is not None and not rx._progress_dirty
    parks = server.parks

    sim.run(until=sim.spawn(send(range(2, 18))))
    sim.run(until=sim.now + 1_000_000.0)
    assert got == list(range(18))
    assert client.tx.full_events > 0     # the sender did wait for space
    assert server.parks > parks
    close(sim, client, server)
    return server, owed


def test_failed_progress_publish_does_not_strand_the_sender(monkeypatch):
    """A progress publish that fails is owed, not lost: the next poll
    repays it, the dispatcher parks, and a sender then refills the ring
    twice over, every message delivered in order."""
    def fail(_sim, rx):
        raise LinkDownError(rx.region.memsys.port.links[0])

    server, owed = refill_after_failed_progress(monkeypatch, fail)
    assert server.rx.deferred_progress == 1
    assert owed and not any(owed)


def test_progress_publish_on_a_dead_link_is_repaid_before_the_park(
        monkeypatch):
    """The ring sits on one MHD, so a progress publish that meets a dead
    link is followed by a slot read over the same dead link: the
    dispatcher backs off instead of parking, and repays the publish
    once the link is back."""
    def kill_link(sim, rx):
        link = rx.region.memsys.port.links[0]
        link.fail()

        def restore():
            yield sim.timeout(150_000.0)
            link.restore()

        sim.spawn(restore())

    server, owed = refill_after_failed_progress(monkeypatch, kill_link)
    assert server.link_errors > 0
    assert owed and not any(owed)


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
        stats = (server.parks, server.empty_polls, server.polls_elided,
                 server.messages_handled)
        close(sim, client, server)
        return arrivals, stats

    assert run_once() == run_once()
