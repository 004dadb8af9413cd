"""The link's FIFO of booked DMA shares: timing, failures, event cost.

A DMA books one share on each link its span touches.  The head share
is on the wire for ``size / bandwidth`` (bandwidth read at grant); the
DMA completes one propagation latency after its last share leaves the
wire.  The link is checked at booking, at grant and when a share leaves
the wire.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cxl.link import CxlLink, DmaCompletion, LinkDownError, LinkSpec
from repro.cxl.params import DEFAULT_TIMINGS
from repro.cxl.pod import POOL_BASE, CxlPod, PodConfig
from repro.sim import Resource, Simulator

PROP = DEFAULT_TIMINGS.cxl_store_ns
MIB = 1 << 20


def _pod(n_mhds):
    sim = Simulator()
    return sim, CxlPod(sim, PodConfig(n_hosts=1, n_mhds=n_mhds,
                                      mhd_capacity=1 << 26))


def _outcome(sim, gen, log):
    """Run ``gen`` and record (result, when) into ``log``."""
    try:
        yield from gen
        log.append(("done", sim.now))
    except LinkDownError:
        log.append(("link-down", sim.now))


def _at(sim, when, fn):
    def proc():
        yield sim.timeout(when)
        fn()
    sim.spawn(proc())


def test_bandwidth_is_read_when_a_share_is_granted():
    sim = Simulator()
    link = CxlLink(sim, LinkSpec(lanes=8))   # 30 GB/s
    log = []
    sim.spawn(_outcome(sim, link.transfer(30_000, write=True), log))
    sim.spawn(_outcome(sim, link.transfer(30_000, write=True), log))
    _at(sim, 500.0, lambda: link.degrade(0.5))
    sim.run()
    # The first share keeps the bandwidth it was granted with; the second
    # is granted at 1,000 ns and serializes at the degraded 15 GB/s.
    assert log == [("done", 1_000.0 + PROP), ("done", 3_000.0 + PROP)]
    assert log[1][1] == 3_204.25


def test_queued_share_fails_with_its_predecessor_at_serialization_end():
    sim = Simulator()
    link = CxlLink(sim, LinkSpec(lanes=8))
    log = []
    sim.spawn(_outcome(sim, link.transfer(30_000, write=True), log))
    sim.spawn(_outcome(sim, link.transfer(30_000, write=True), log))
    _at(sim, 500.0, link.fail)

    def late():
        yield sim.timeout(700.0)
        yield from _outcome(sim, link.transfer(30_000, write=True), log)
    sim.spawn(late())
    sim.run()
    # Booked on a down link: fails at once.  A, on the wire at the
    # failure, fails when it leaves the wire; B is granted then and
    # fails at the same instant, not at the failure instant.
    assert log == [("link-down", 700.0), ("link-down", 1_000.0),
                   ("link-down", 1_000.0)]
    assert link.bulk_ops == 0 and link.bytes_written == 0


def test_flap_that_ends_before_the_share_leaves_the_wire_goes_unseen():
    sim, pod = _pod(n_mhds=2)
    mem = pod.host("h0")
    link = mem.port.links[0]
    log = []
    sim.spawn(_outcome(sim, mem.dma_write(POOL_BASE, bytes(MIB)), log))
    _at(sim, 5_000.0, link.fail)
    _at(sim, 6_000.0, link.restore)
    sim.run()
    assert log == [("done", (MIB // 2) / 30.0 + PROP)]
    assert log[0][1] == pytest.approx(17_680.5, abs=0.1)
    assert [l.bytes_written for l in mem.port.links] == [MIB // 2] * 2


def test_a_dma_whose_two_links_fail_raises_once():
    # Both shares fail when they leave the wire.  The first fails the
    # DMA; the second is absorbed instead of escaping the run.
    sim, pod = _pod(n_mhds=2)
    mem = pod.host("h0")
    log = []
    sim.spawn(_outcome(sim, mem.dma_write(POOL_BASE, bytes(MIB)), log))

    def fail_both():
        for link in mem.port.links:
            link.fail()
    _at(sim, 5_000.0, fail_both)
    sim.run()
    assert log == [("link-down", (MIB // 2) / 30.0)]
    assert log[0][1] == pytest.approx(17_476.3, abs=0.1)


def test_a_dma_on_an_idle_link_costs_two_kernel_events():
    sim, pod = _pod(n_mhds=1)
    mem = pod.host("h0")
    log = []
    sim.run(until=sim.spawn(_outcome(sim, mem.dma_read(POOL_BASE, 4096),
                                     log)))
    assert log == [("done", 4096 / 30.0 + DEFAULT_TIMINGS.cxl_load_ns)]
    # Beyond the driving process's bootstrap and exit: one event while
    # the share is on the wire and one for the DMA's completion.
    assert sim.events_processed - 2 == 2


def _reference_share(sim, link, arbiter, size, write, out):
    """The model the FIFO replaced: a process behind a capacity-1
    arbiter that checks the link at its first step, after the grant and
    after serialization."""
    try:
        if not link.up:
            raise LinkDownError(link)
        with arbiter.request() as req:
            yield req
            if not link.up:
                raise LinkDownError(link)
            yield sim.timeout(size / link.bandwidth)
        if not link.up:
            raise LinkDownError(link)
        yield sim.timeout(DEFAULT_TIMINGS.cxl_store_ns if write
                          else DEFAULT_TIMINGS.cxl_load_ns)
        out.append(("done", sim.now, link))
    except LinkDownError:
        out.append(("link-down", sim.now, link))


def _reference_outcome(shares):
    """``AllOf`` semantics: the first failure, else the last completion."""
    failed = [t for kind, t, _ in shares if kind == "link-down"]
    if failed:
        return ("link-down", min(failed))
    return ("done", max(t for _, t, _ in shares))


_dmas = st.lists(
    st.tuples(
        st.integers(0, 60).map(lambda k: 50.0 * k),           # booked at
        st.tuples(st.integers(0, 40), st.integers(0, 40))
        .filter(any).map(lambda ks: [30 * k for k in ks]),    # bytes/link
        st.booleans(),                                         # write
    ),
    min_size=1, max_size=8,
)
# Bookings, grants and serialization ends fall on whole nanoseconds and
# faults half a nanosecond off them, so no same-instant tie decides one.
_faults = st.lists(
    st.tuples(
        st.integers(0, 200).map(lambda k: 25.0 * k + 0.5),
        st.sampled_from(["fail", "restore", "degrade", "nominal"]),
        st.integers(0, 1),
    ),
    max_size=8,
)
_ACTIONS = {"fail": CxlLink.fail, "restore": CxlLink.restore,
            "degrade": lambda link: link.degrade(0.5),
            "nominal": CxlLink.restore_bandwidth}


@settings(max_examples=150, deadline=None)
@given(dmas=_dmas, faults=_faults)
def test_property_fifo_matches_the_arbiter_process_model(dmas, faults):
    sim = Simulator()
    links = [CxlLink(sim, LinkSpec(lanes=8), name=f"l{i}") for i in (0, 1)]
    arbiters = {link: Resource(sim) for link in links}
    fifo, reference = {}, {}

    def dma(i, at, sizes, write):
        yield sim.timeout(at)
        shares = [(link, size)
                  for link, size in zip(links, sizes, strict=True) if size]
        reference[i] = []
        for link, size in shares:
            sim.spawn(_reference_share(sim, link, arbiters[link], size,
                                       write, reference[i]))
        done = DmaCompletion(sim, len(shares), DEFAULT_TIMINGS, write)
        for link, size in shares:
            link.book(done, size, write)
        try:
            yield done.event
            fifo[i] = ("done", sim.now)
        except LinkDownError:
            fifo[i] = ("link-down", sim.now)

    for i, (at, sizes, write) in enumerate(dmas):
        sim.spawn(dma(i, at, sizes, write))
    for at, kind, idx in faults:
        _at(sim, at, lambda kind=kind, idx=idx: _ACTIONS[kind](links[idx]))
    sim.run()
    assert fifo == {i: _reference_outcome(shares)
                    for i, shares in reference.items()}
    for link in links:
        assert link.bulk_ops == sum(
            1 for shares in reference.values()
            for kind, _, on in shares if kind == "done" and on is link)
