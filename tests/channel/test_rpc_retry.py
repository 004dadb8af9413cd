"""Retry/backoff layer of the RPC endpoints, and late-reply hygiene."""

import pytest

from repro.channel.messages import Completion, MmioRead, MmioReadReply
from repro.channel.rpc import RpcEndpoint, RpcError
from repro.cxl.pod import CxlPod, PodConfig
from repro.sim import Simulator


def make_pair(seed=0):
    sim = Simulator(seed=seed)
    pod = CxlPod(sim, PodConfig(n_hosts=2, n_mhds=1, mhd_capacity=1 << 26))
    a, b = RpcEndpoint.pair(pod, "h0", "h1")
    return sim, pod, a, b


def finish(sim, *endpoints):
    for ep in endpoints:
        ep.close()
    sim.run()


def test_call_with_retry_recovers_from_dropped_requests():
    sim, _pod, client, server = make_pair()
    dropped = []

    def handle_read(msg):
        if len(dropped) < 2:
            dropped.append(msg.request_id)  # silently lose the request
            return
        return server.send(
            MmioReadReply(request_id=msg.request_id, value=99)
        )

    server.on(MmioRead, handle_read)

    def caller():
        reply = yield from client.call_with_retry(
            MmioRead(request_id=0, device_id=1, addr=0),
            timeout_ns=50_000.0,
        )
        return reply.value

    p = sim.spawn(caller())
    sim.run(until=p)
    assert p.value == 99
    assert client.retries == 2
    assert client.calls_timed_out == 2
    assert client.backoff_ns_total > 0.0
    assert client.calls_gave_up == 0
    finish(sim, client, server)


def test_call_with_retry_uses_fresh_request_ids():
    sim, _pod, client, server = make_pair()
    seen = []

    def handle_read(msg):
        seen.append(msg.request_id)
        if len(seen) >= 2:
            return server.send(
                MmioReadReply(request_id=msg.request_id, value=1)
            )

    server.on(MmioRead, handle_read)

    def caller():
        yield from client.call_with_retry(
            MmioRead(request_id=0, device_id=1, addr=0),
            timeout_ns=50_000.0,
        )

    p = sim.spawn(caller())
    sim.run(until=p)
    assert len(seen) == 2
    assert seen[0] != seen[1]  # a retry must not reuse the timed-out id
    finish(sim, client, server)


def test_call_with_retry_gives_up_after_max_attempts():
    sim, _pod, client, server = make_pair()
    server.on(MmioRead, lambda msg: None)  # black hole

    def caller():
        with pytest.raises(RpcError, match="failed after 3 attempts"):
            yield from client.call_with_retry(
                MmioRead(request_id=0, device_id=1, addr=0),
                timeout_ns=30_000.0, max_attempts=3,
            )

    p = sim.spawn(caller())
    sim.run(until=p)
    assert client.calls_gave_up == 1
    assert client.retries == 2
    assert client.calls_timed_out == 3
    finish(sim, client, server)


def test_backoff_delays_grow_and_jitter_is_deterministic():
    def run_once():
        sim, _pod, client, server = make_pair(seed=7)
        server.on(MmioRead, lambda msg: None)
        attempt_times = []

        def spy(msg):
            attempt_times.append(sim.now)

        server.on(MmioRead, spy)

        def caller():
            try:
                yield from client.call_with_retry(
                    MmioRead(request_id=0, device_id=1, addr=0),
                    timeout_ns=20_000.0, max_attempts=4,
                )
            except RpcError:
                pass

        p = sim.spawn(caller())
        sim.run(until=p)
        finish(sim, client, server)
        return attempt_times

    first = run_once()
    second = run_once()
    assert len(first) == 4
    gaps = [b - a for a, b in zip(first, first[1:], strict=False)]
    # Each gap = timeout + backoff(attempt); backoff doubles, so gaps
    # strictly grow.
    assert gaps == sorted(gaps)
    assert first == second  # jitter comes from a seeded named stream


def test_late_reply_is_dropped_not_mismatched():
    """Satellite: a reply arriving after its call timed out must be
    discarded, not parked where a future call could consume it."""
    sim, _pod, client, server = make_pair()

    def handle_read(msg):
        def responder():
            # Answer well after the caller's 50 us deadline.
            yield sim.timeout(200_000.0)
            yield from server.send(
                MmioReadReply(request_id=msg.request_id, value=0xbad)
            )
        return responder()

    server.on(MmioRead, handle_read)

    def caller():
        with pytest.raises(RpcError, match="timed out"):
            yield from client.call(
                MmioRead(request_id=client.next_request_id(),
                         device_id=1, addr=0),
                timeout_ns=50_000.0,
            )
        # Wait for the straggler to arrive and be dropped.
        yield sim.timeout(500_000.0)

    p = sim.spawn(caller())
    sim.run(until=p)
    assert client.late_replies_dropped == 1
    assert not client._calls
    finish(sim, client, server)


def test_recycled_request_id_cannot_match_stale_reply():
    """The full leak scenario: call times out, its id is recycled by a
    fresh call, and the stale reply to the first call arrives *between*
    the two — the second call must get its own answer."""
    sim, _pod, client, server = make_pair()
    calls = []

    def handle_read(msg):
        calls.append(msg)
        if len(calls) == 1:
            def responder():
                yield sim.timeout(120_000.0)  # after the caller gave up
                yield from server.send(MmioReadReply(
                    request_id=msg.request_id, value=0xdead))
            return responder()
        return server.send(
            MmioReadReply(request_id=msg.request_id, value=0xfeed)
        )

    server.on(MmioRead, handle_read)

    def caller():
        rid = client.next_request_id()
        with pytest.raises(RpcError):
            yield from client.call(
                MmioRead(request_id=rid, device_id=1, addr=0),
                timeout_ns=50_000.0,
            )
        yield sim.timeout(200_000.0)  # stale reply lands and is dropped
        # Adversarial client reuses the same id for an unrelated call.
        reply = yield from client.call(
            MmioRead(request_id=rid, device_id=1, addr=4),
            timeout_ns=500_000.0,
        )
        return reply.value

    p = sim.spawn(caller())
    sim.run(until=p)
    assert p.value == 0xfeed
    assert client.late_replies_dropped == 1
    finish(sim, client, server)


def test_dispatcher_survives_link_flap():
    """A flapping CXL link must not kill the dispatcher process: woken
    by a publish while its own link is down, it backs off and re-polls
    until the link returns, then delivers."""
    sim, pod, client, server = make_pair()
    seen = []
    client.on(Completion, lambda m: seen.append((sim.now, m.status)))
    link = pod.host("h0").port.links[0]

    def scenario():
        link.fail()
        yield sim.timeout(100_000.0)
        # The server's own link is up: its publish lands and wakes the
        # client's parked dispatcher, whose poll meets the dead link.
        yield from server.send(Completion(request_id=0, status=7))
        yield sim.timeout(1_000_000.0)
        restored_at = sim.now
        link.restore()
        yield sim.timeout(1_000_000.0)
        return restored_at

    p = sim.spawn(scenario())
    sim.run(until=p)
    assert client.link_errors > 0
    assert [status for _t, status in seen] == [7]
    assert seen[0][0] > p.value
    finish(sim, client, server)
