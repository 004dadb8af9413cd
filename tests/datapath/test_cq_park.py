"""The CQ collector parks on its polling loop's grid.

After an empty read the collector does not sleep ``CQ_POLL_NS`` and read
again: it parks, and is woken only when its CQ head line, that line's
link, or the journal and generation it re-checks change — at the grid
point where the polling loop would next have read.  The loop is kept
here as the reference (:class:`LoopSsdClient`): every test that can,
checks the parked collector against it to the last bit.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.channel.rpc import RpcEndpoint
from repro.cxl.params import DEFAULT_TIMINGS
from repro.cxl.pod import CxlPod, PodConfig
from repro.datapath.proxy import DeviceServer, RemoteDeviceHandle
from repro.datapath.vaccel import RemoteAcceleratorClient
from repro.datapath.vssd import RemoteSsdClient
from repro.health import OverloadError
from repro.pcie.rings import COMPLETION_BYTES, CompletionEntry
from repro.pcie.ssd import Ssd, SsdSpec
from repro.sim import Simulator

READ_NS = DEFAULT_TIMINGS.cpu_issue_ns + DEFAULT_TIMINGS.cxl_load_ns


class ParkSsdClient(RemoteSsdClient):
    """The client under test, recording each claimed completion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reaped = []

    def _complete(self, entry):
        self.reaped.append((self.sim.now, entry.index, entry.seq))
        super()._complete(entry)


class LoopSsdClient(ParkSsdClient):
    """Reference: the polling loop the park replaces."""

    def _park(self, sampled):
        yield self.sim.timeout(self.CQ_POLL_NS)


def watchers(pod):
    """Every armed watch callback on the pod's links and media."""
    fns = []
    for mhd in pod.mhds:
        for link in mhd.links:
            fns += link._watchers
        for line_fns in mhd.memory._watchers.values():
            fns += line_fns
    return fns


def assert_no_stale_watch(pod):
    for fn in watchers(pod):
        park = fn.__self__._cq_park
        assert park is not None and not park.wake.triggered, fn


def cq_link(client):
    """The link this client's CQ head line is loaded over."""
    addr = (client.cq_base
            + (client._cq_head % client.n_entries) * COMPLETION_BYTES)
    mhd_idx, _media, _dev = client.memsys.pod.route(addr)
    return client.memsys.port.links[mhd_idx]


# -- a pooled SSD behind a real ring channel ---------------------------------


class SsdRig:
    """SSD on h0, borrowed by h2 over an RPC ring pair.

    Small rings and buffers keep the allocation-time scrub cheap, and a
    1 ms op timeout lets the watchdog's first 10 ms tick fail over.
    """

    def __init__(self, cls=ParkSsdClient, spec=SsdSpec(n_sq_entries=64),
                 seed=3):
        self.sim = Simulator(seed=seed)
        self.pod = CxlPod(self.sim, PodConfig(n_hosts=3, n_mhds=2,
                                              mhd_capacity=1 << 27))
        self.ssd = Ssd(self.sim, "ssd0", device_id=10, spec=spec)
        self.ssd.attach(self.pod.host("h0"))
        self.ssd.start()
        owner_ep, borrower_ep = RpcEndpoint.pair(self.pod, "h0", "h2")
        self.endpoints = (owner_ep, borrower_ep)
        DeviceServer(owner_ep).export(self.ssd)
        self.handle = RemoteDeviceHandle(borrower_ep, device_id=10)
        self.client = cls(self.sim, self.pod.host("h2"), self.handle,
                          self.pod, "h0", n_entries=spec.n_sq_entries,
                          max_io_bytes=16384, op_timeout_ns=1_000_000.0,
                          hedge_deadline_ns=500_000.0)

    def close(self):
        self.ssd.stop()
        for ep in self.endpoints:
            ep.close()
        self.sim.run()


def test_cq_poll_period_exceeds_the_device_write_latency():
    """The tie rule's premise: a CQ entry that lands exactly on a grid
    point was scheduled (one store latency earlier) after the loop's
    read there (one poll period earlier), so that read missed it."""
    for cls in (RemoteSsdClient, RemoteAcceleratorClient):
        assert cls.CQ_POLL_NS > DEFAULT_TIMINGS.cxl_store_ns


def test_idle_write_costs_a_handful_of_collector_events():
    """The loop pays two events per poll period of device time (the
    read's latency, then the sleep); the parked collector pays for the
    reads around the device's one CQ write."""
    rig = SsdRig()
    client = rig.client
    counts = Counter()
    schedule = rig.sim.schedule

    def counting(event, delay=0.0):
        proc = rig.sim.active_process
        if proc is not None and proc is client._collector:
            counts["collector"] += 1
        elif event.name == "cq-wake":
            counts["cq-wake"] += 1
        schedule(event, delay)

    def proc():
        yield from client.setup()
        rig.sim.schedule = counting
        status = yield from client.write(0, b"\x5a" * 4096)
        rig.sim.schedule = schedule
        return status

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    assert p.value == CompletionEntry.STATUS_OK
    assert client.ops_completed == 1
    # Read, park, one wake at the CQ write, read, wake the waiter: 4
    # events.  The polling loop took 22 here: two per 2.2 us poll of
    # device time (the read's latency, then the sleep), then the
    # reaping read and the waiter.
    assert counts == {"collector": 3, "cq-wake": 1}
    assert watchers(rig.pod) == []
    rig.close()


def test_cq_link_flap_is_ridden_out():
    """A flap of the CQ head line's link mid-op: the collector's read
    meets the dead link, backs off and reads again once it is back,
    with no failover (the op-timeout watchdog stays the backstop)."""
    rig = SsdRig()
    client = rig.client
    out = {}

    def flap(link):
        yield rig.sim.timeout(20_000.0)
        link.fail()
        yield rig.sim.timeout(50_000.0)
        link.restore()

    def proc():
        yield from client.setup()
        start = rig.sim.now
        rig.sim.spawn(flap(cq_link(client)))
        out["status"] = yield from client.write(0, b"\x5a" * 4096)
        out["latency"] = rig.sim.now - start

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    assert out["status"] == CompletionEntry.STATUS_OK
    # The read at 20 us meets the link down; the retry after
    # LINK_RETRY_POLL_NS (100 us) finds the entry.
    assert out["latency"] == pytest.approx(120_270.8, abs=0.1)
    assert client.failovers == 0 and client.op_timeouts == 0
    assert watchers(rig.pod) == []
    rig.close()


def test_no_watch_outlives_its_park():
    """Watches are one-shot: armed at park, all withdrawn at the wake.
    Sampled every 500 ns through writes, a fail-slow window and a link
    flap, every armed watch belongs to a collector still parked, and
    none is left once the ops are done."""
    rig = SsdRig()
    client = rig.client
    samples = []

    def sampler():
        while True:
            yield rig.sim.timeout(500.0)
            assert_no_stale_watch(rig.pod)
            samples.append(len(watchers(rig.pod)))

    def faults(link):
        yield rig.sim.timeout(10_000.0)
        rig.pod.slow_mhd(0, 4.0)
        yield rig.sim.timeout(20_000.0)
        rig.pod.restore_mhd_latency(0)
        link.fail()
        yield rig.sim.timeout(5_000.0)
        link.restore()

    def write(i):
        yield rig.sim.timeout(i * 7_000.0)
        yield from client.write(i * 8192, bytes([i]) * 4096)

    def proc():
        yield from client.setup()
        rig.sim.spawn(sampler())
        rig.sim.spawn(faults(cq_link(client)))
        for p in [rig.sim.spawn(write(i)) for i in range(6)]:
            yield p

    p = rig.sim.spawn(proc())
    rig.sim.run(until=p)
    assert client.ops_completed == 6
    assert max(samples) == 2            # one line and one link watch
    assert watchers(rig.pod) == []


# -- a bare client: CQ entries written by hand at chosen instants ------------


class BareRig:
    """A client with no device: the test writes its CQ entries.

    Op 0 is journaled at :attr:`T0`, when the collector starts and
    issues its first (real) read.
    """

    T0 = 10_000.0

    def __init__(self, cls=ParkSsdClient):
        self.sim = Simulator(seed=1)
        self.pod = CxlPod(self.sim, PodConfig(n_hosts=2, n_mhds=1,
                                              mhd_capacity=1 << 27))
        handle = SimpleNamespace(is_remote=False)
        self.client = cls(self.sim, self.pod.host("h1"), handle, self.pod,
                          "h0")

        def start():
            yield self.sim.timeout(self.T0)
            self.client._journal(0, None, None, False)
            self.client._ensure_daemons()

        self.sim.spawn(start())

    def at(self, at_ns, fn):
        """Process: call ``fn()`` at ``at_ns``."""
        def call():
            yield self.sim.timeout(at_ns - self.sim.now)
            fn()
        return self.sim.spawn(call())

    def land_at(self, at_ns, lead_ns=DEFAULT_TIMINGS.cxl_store_ns):
        """Write op 0's completion at ``at_ns`` from an event scheduled
        ``lead_ns`` before it, as a device's CQ write is."""
        def land():
            addr = self.client.cq_base
            self.pod.pool_write(addr, CompletionEntry(
                1, CompletionEntry.STATUS_OK, 0, 0, 0).encode())
        self.at(at_ns - lead_ns, lambda: self.at(at_ns, land))

    def reaped(self, horizon_ns=1_000_000.0):
        """Run to ``horizon_ns``; returns when each entry was claimed."""
        self.sim.run(until=horizon_ns)
        assert_no_stale_watch(self.pod)
        return [t for t, _index, _seq in self.client.reaped]


def grid(n):
    """The loop's first ``n`` reads after its first, at BareRig.T0."""
    points, s = [], BareRig.T0
    for _ in range(n):
        s = (s + READ_NS) + RemoteSsdClient.CQ_POLL_NS
        points.append(s)
    return points


BOTH = pytest.mark.parametrize("cls", [ParkSsdClient, LoopSsdClient],
                               ids=["park", "loop"])


@BOTH
def test_entry_landing_during_the_first_read_is_reaped_next_read(cls):
    """An entry that lands after a read sampled the line but before the
    read returned fires no watch: the collector is not parked yet.  The
    next grid read must reap it; without the park's recheck of the
    entry's bytes it would be lost."""
    rig = BareRig(cls)
    rig.land_at(BareRig.T0 + 100.0)
    assert rig.reaped() == [grid(1)[0] + READ_NS]


@BOTH
def test_entry_landing_during_a_read_after_a_wake_is_reaped_next_read(cls):
    """The same race on a read the parked collector makes after a
    (spurious) wake: a link watch fires, the collector reads at the
    next grid point, and the entry lands while that read is in
    flight."""
    rig = BareRig(cls)
    points = grid(4)
    link = rig.pod.host("h1").port.links[0]
    rig.at(points[1] - 500.0, link.restore_latency)
    rig.land_at(points[1] + 100.0)
    assert rig.reaped() == [points[2] + READ_NS]


@BOTH
def test_entry_landing_exactly_on_a_grid_point_is_reaped_a_step_later(cls):
    """The loop's read at the landing instant was scheduled a poll
    period earlier than the landing, so it pops first and misses the
    entry; the next read reaps it.  The parked collector must agree."""
    rig = BareRig(cls)
    points = grid(5)
    rig.land_at(points[3])
    assert rig.reaped() == [points[4] + READ_NS]


@BOTH
def test_entry_landing_between_grid_points_is_reaped_at_the_next(cls):
    rig = BareRig(cls)
    points = grid(5)
    rig.land_at(points[2] + 1_000.0)
    assert rig.reaped() == [points[3] + READ_NS]


@BOTH
def test_collector_exits_where_the_loop_would_once_the_journal_empties(cls):
    """A failure path that de-journals the last op wakes the parked
    collector at the loop's next read, where the loop finds the journal
    empty and exits.  Left parked, it would outlive the journal, and a
    later op would reuse it on a stale grid instead of a fresh one."""
    rig = BareRig(cls)
    client = rig.client
    points = grid(4)
    exits = []
    rig.at(BareRig.T0 + 1.0, lambda: client._collector.add_callback(
        lambda _proc: exits.append(rig.sim.now)))
    rig.at(points[1] + 500.0, lambda: client._dejournal(client._pending[0]))
    assert rig.reaped() == []
    assert exits == [points[2]]


def test_parked_collector_follows_a_slow_factor_change_on_the_grid():
    """A fail-slow window stretches each read; the virtual reads before
    the change used the old latency, the ones after it the new one."""
    times = []
    for cls in (ParkSsdClient, LoopSsdClient):
        rig = BareRig(cls)
        rig.at(15_000.0, lambda rig=rig: rig.pod.slow_mhd(0, 3.0))
        rig.at(22_000.0, lambda rig=rig: rig.pod.restore_mhd_latency(0))
        rig.land_at(30_000.0)
        times.append(rig.reaped())
    assert len(times[0]) == 1
    assert times[0] == times[1]


# -- the park against the loop, over random schedules ------------------------


SIZES = (512, 4096, 16384)
#: Both runs of a schedule stop here: past the watchdog's first 10 ms
#: tick, so a stuck op's op-timeout failover is part of the comparison.
HORIZON_NS = 25_000_000.0


@st.composite
def schedules(draw):
    n_ops = draw(st.integers(1, 6))
    ops = [(draw(st.floats(0.0, 60_000.0)), draw(st.sampled_from(SIZES)),
            draw(st.booleans()))
           for _ in range(n_ops)]
    window = st.tuples(st.floats(0.0, 80_000.0), st.floats(500.0, 60_000.0))
    return {
        "ops": ops,
        "write_ns": draw(st.sampled_from((4_000.0, 16_000.0, 33_333.3))),
        "read_ns": draw(st.sampled_from((3_000.0, 60_000.0))),
        "slow": draw(st.none() | st.tuples(window, st.integers(0, 1),
                                           st.sampled_from((2.0, 7.5)))),
        "flap": draw(st.none() | st.tuples(window, st.integers(0, 1))),
        "failover": draw(st.none() | st.floats(0.0, 80_000.0)),
        "refused": draw(st.none() | st.integers(0, n_ops - 1)),
    }


def run_schedule(cls, sched):
    spec = SsdSpec(write_latency_ns=sched["write_ns"],
                   read_latency_ns=sched["read_ns"], n_sq_entries=64)
    rig = SsdRig(cls, spec)
    sim, pod, client = rig.sim, rig.pod, rig.client
    outcomes = {}
    refused = set()
    ring_doorbell = rig.handle.ring_doorbell

    def admission(qid, value, parent=None):
        # A post refused by admission: the op's own doorbell raises.
        if sim.active_process in refused:
            raise OverloadError("test admission", retry_after_ns=1_000.0)
        yield from ring_doorbell(qid, value, parent=parent)

    rig.handle.ring_doorbell = admission

    def op(i, at, size, write):
        yield sim.timeout(at)
        try:
            if write:
                yield from client.write(i * 32768, bytes([i + 1]) * size)
            else:
                yield from client.read(i * 32768, size)
            outcomes[i] = ("ok", sim.now)
        except Exception as exc:           # noqa: BLE001 - recorded
            outcomes[i] = (type(exc).__name__, sim.now)

    def fault(at, do, undo=None, length=0.0):
        yield sim.timeout(at)
        do()
        if undo is not None:
            yield sim.timeout(length)
            undo()

    def failover_at(at):
        yield sim.timeout(at)
        try:
            yield from client.failover()
        except Exception as exc:           # noqa: BLE001 - recorded
            outcomes["failover"] = (type(exc).__name__, sim.now)

    def driver():
        yield from client.setup()
        procs = []
        for i, (at, size, write) in enumerate(sched["ops"]):
            p = sim.spawn(op(i, at, size, write))
            if sched["refused"] == i:
                refused.add(p)
            procs.append(p)
        if sched["slow"] is not None:
            (at, length), idx, factor = sched["slow"]
            sim.spawn(fault(at, lambda: pod.slow_mhd(idx, factor),
                            lambda: pod.restore_mhd_latency(idx), length))
        if sched["flap"] is not None:
            (at, length), idx = sched["flap"]
            link = pod.host("h2").port.links[idx]
            sim.spawn(fault(at, link.fail, link.restore, length))
        if sched["failover"] is not None:
            sim.spawn(failover_at(sched["failover"]))
        for p in procs:
            yield p

    sim.spawn(driver())
    sim.run(until=HORIZON_NS)
    assert_no_stale_watch(pod)
    return {
        "outcomes": outcomes, "reaped": client.reaped,
        "cq_head": client._cq_head, "generation": client.generation,
        "failovers": client.failovers, "completed": client.ops_completed,
        "pending": sorted(client._pending),
    }


def one_read(**faults):
    sched = {"ops": [(0.0, 512, False)], "write_ns": 4_000.0,
             "read_ns": 60_000.0, "slow": None, "flap": None,
             "failover": None, "refused": None}
    sched.update(faults)
    return sched


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedules())
# A failover that starts while a virtual read is in flight: the loop's
# read returns to a new generation and it reads again at once.
@example(one_read(failover=13_489.0))
# The same, just after a fail-slow window's end woke the collector for
# the next read's issue: the read's return comes first.
@example(one_read(slow=((15_550.0, 34_091.0), 0, 7.5), failover=49_642.0))
def test_parked_collector_matches_the_polling_loop(sched):
    parked = run_schedule(ParkSsdClient, sched)
    loop = run_schedule(LoopSsdClient, sched)
    assert parked == loop
