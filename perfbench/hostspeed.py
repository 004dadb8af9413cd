"""How fast the host is running right now, from a fixed reference workload.

On a shared host the CPU a run gets switches between a fast and a slow
state, 1.6 to 2 times apart, every fraction of a second to tens of
seconds, so repeated runs of the same code can differ by half.
:class:`HostSpeed` runs a small fixed reference workload every
:data:`INTERVAL_S` on ``SIGALRM`` while a workload runs and keeps the time
of each sample.  :meth:`HostSpeed.scale` turns the samples taken during
one stretch of host time (one measured run, one batch of setups) into the
factor that states that stretch at a fixed reference speed.

The reference is a toy discrete-event loop: generator processes resumed
in heap order, writing a small dict.  That is the same kind of
interpreter work as the simulator's, so it slows down about as much in
the slow state, which a plain arithmetic loop does not.  Its working set
is a few kilobytes and stays in the core's private caches, so a program
that leaves more or less of the shared cache does not move it.  It
touches no simulator state, so simulated results do not change.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from time import perf_counter

#: Seconds between two samples of the reference workload.
INTERVAL_S = 0.05
#: The reference workload's time in the fast state of a 2-vCPU x86-64
#: host (Python 3.11).
NOMINAL_S = 0.0008
_PROCESSES = 32
_EVENTS = 1000


def reference():
    """The reference workload: a fixed toy discrete-event loop."""
    table = {}

    def process(k):
        delay = 0.0
        while True:
            delay = yield (k * 2654435761 + delay) % 97.0 + 1.0
            table[k & 63] = (delay, k)

    procs = [process(k) for k in range(_PROCESSES)]
    heap = [(next(p), k, k) for k, p in enumerate(procs)]
    heapq.heapify(heap)
    for seq in range(_PROCESSES, _PROCESSES + _EVENTS):
        t, _seq, k = heapq.heappop(heap)
        heapq.heappush(heap, (t + procs[k].send(t), seq, k))


class HostSpeed:
    """Samples the reference workload on ``SIGALRM`` in a ``with`` block."""

    def __init__(self):
        self.samples = []       # (perf_counter at its end, seconds taken)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame):
        start = perf_counter()
        reference()
        end = perf_counter()
        self.samples.append((end, end - start))

    def scale(self, start, end):
        """Factor taking host time measured from ``start`` to ``end``
        (``perf_counter`` readings) to the nominal speed, net of the
        reference workload's own share of it.

        Each sample stands for the host's speed around it,
        ``NOMINAL_S / seconds``; with no sample inside the stretch, the
        nearest one stands in.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            _t, nearest = min(self.samples, default=(end, NOMINAL_S),
                              key=lambda sample: abs(sample[0] - end))
            return NOMINAL_S / nearest
        busy = sum(inside) / (end - start)
        return (1.0 - busy) * statistics.fmean(NOMINAL_S / s for s in inside)
