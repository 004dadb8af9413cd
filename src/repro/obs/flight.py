"""Tail-exemplar flight recorder: always-on, bounded, post-mortem ready.

A :class:`FlightRecorder` sits behind the active tracer (see
:mod:`repro.obs.runtime`): every finished span or instant is folded into
a **per-host ring buffer** with explicit byte accounting, so the memory
cost of always-on recording is a hard cap, not a hope.  Two things make
it more than a circular log:

* **Deterministic tail sampling** — when a root op ends at or above
  ``tail_threshold_ns``, its whole trace (every buffered record sharing
  the trace id) is pinned as an *exemplar*.  The slowest
  ``max_exemplars`` ops are kept, ordered by ``(-duration, trace_id)``
  — pure sim-time quantities, so two same-seed runs pin byte-identical
  exemplars.
* **Post-mortem bundles** — failure sites (op-timeout watchdogs, owner
  fencing, quarantine, brownout escalation) call :meth:`trip`; a
  :meth:`bundle` then snapshots the rings, the pinned exemplars, a
  metrics snapshot, and the fault-log tail into one JSON-safe dict.
  Nothing wall-clock ever enters a record or a bundle, so bundles are
  bit-identical across same-seed runs — a post-mortem you can diff.

Recording costs nothing when tracing is off (the recorder only sees
spans the tracer produced), and the ``RECORDER.enabled`` guard keeps
trip sites to one attribute load on the disabled path — the same
discipline as ``TRACER.enabled``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional

from repro.obs import names
from repro.obs.trace import Span

#: Fixed per-record accounting overhead (ids, timestamps, list slots).
_RECORD_BASE_BYTES = 56
#: Accounted bytes per annotation key/value pair.
_ARG_BYTES = 16


def _record_cost(span: Span) -> int:
    cost = _RECORD_BASE_BYTES + len(span.name) + len(span.track)
    if span.args:
        cost += _ARG_BYTES * len(span.args)
    return cost


def _encode(span: Span) -> tuple:
    args = dict(span.args) if span.args else None
    return (span.name, span.track, span.cat, span.trace_id, span.span_id,
            span.parent_id, span.start_ns, span.end_ns, span.phase, args)


def _record_json(record: tuple) -> dict:
    name, track, cat, trace_id, span_id, parent_id, start, end, ph, args = \
        record
    return {
        "name": name, "track": track, "cat": cat, "trace_id": trace_id,
        "span_id": span_id, "parent_id": parent_id, "start_ns": start,
        "end_ns": end, "phase": ph, "args": args,
    }


class FlightRecorder:
    """Bounded per-host span ring + tail exemplars + trip log."""

    enabled = True

    def __init__(self, cap_bytes: int = 64 * 1024,
                 tail_threshold_ns: float = 1_000_000.0,
                 max_exemplars: int = 4,
                 max_trips: int = 64):
        self.cap_bytes = int(cap_bytes)
        self.tail_threshold_ns = float(tail_threshold_ns)
        self.max_exemplars = int(max_exemplars)
        self.max_exemplar_spans = 256
        self._rings: dict[str, deque] = {}
        self._ring_bytes: dict[str, int] = {}
        #: ``(-duration, trace_id)``-sorted pinned traces.
        self._exemplars: list[tuple[float, int, tuple, list]] = []
        self.trips: deque = deque(maxlen=max_trips)
        self.records_total = 0
        self.evictions_total = 0
        self.pinned_total = 0
        # Resolved once; METRICS itself is looked up per use so
        # reset_metrics() is always honored.
        from repro.obs import runtime as _rt
        self._rt = _rt

    # -- ingest (called by Tracer.end / Tracer.instant) --------------------

    def on_span(self, span: Span) -> None:
        host = span.track.split("/", 1)[0]
        ring = self._rings.get(host)
        if ring is None:
            ring = self._rings[host] = deque()
            self._ring_bytes[host] = 0
        record = _encode(span)
        cost = _record_cost(span)
        ring.append((cost, record))
        used = self._ring_bytes[host] + cost
        self.records_total += 1
        evicted = 0
        while used > self.cap_bytes and ring:
            dropped_cost, _dropped = ring.popleft()
            used -= dropped_cost
            evicted += 1
        self._ring_bytes[host] = used
        metrics = self._rt.METRICS
        metrics.counter(names.FLIGHT_RECORDS).inc()
        if evicted:
            self.evictions_total += evicted
            metrics.counter(names.FLIGHT_EVICTIONS).inc(evicted)
        metrics.gauge(names.FLIGHT_BUFFER_BYTES).set(
            float(sum(self._ring_bytes.values()))
        )
        if (span.parent_id == 0 and span.end_ns is not None
                and span.end_ns > span.start_ns
                and span.end_ns - span.start_ns >= self.tail_threshold_ns):
            self._pin(span, record)

    def _pin(self, root: Span, root_record: tuple) -> None:
        duration = root.end_ns - root.start_ns
        key = (-duration, root.trace_id)
        if (len(self._exemplars) >= self.max_exemplars
                and key >= self._exemplars[-1][:2]):
            return  # not slower than the current slowest-kept
        trace_id = root.trace_id
        spans = [rec for ring in self._rings.values()
                 for _cost, rec in ring if rec[3] == trace_id]
        spans.sort(key=lambda rec: (rec[6], rec[4]))  # (start_ns, span_id)
        del spans[self.max_exemplar_spans:]
        self._exemplars.append((key[0], key[1], root_record, spans))
        self._exemplars.sort(key=lambda e: (e[0], e[1]))
        del self._exemplars[self.max_exemplars:]
        self.pinned_total += 1
        self._rt.METRICS.counter(names.FLIGHT_EXEMPLARS_PINNED).inc()

    # -- failure hooks -----------------------------------------------------

    def trip(self, reason: str, now: float, detail: str = "") -> None:
        """Latch a failure event (watchdog, fence, quarantine, brownout)."""
        self.trips.append({"at_ns": now, "reason": reason, "detail": detail})
        self._rt.METRICS.counter(names.FLIGHT_TRIPS).inc()

    # -- queries -----------------------------------------------------------

    def buffer_bytes(self, host: Optional[str] = None) -> int:
        if host is not None:
            return self._ring_bytes.get(host, 0)
        return sum(self._ring_bytes.values())

    def hosts(self) -> list[str]:
        return sorted(self._rings)

    def exemplars(self) -> list[dict]:
        """Pinned tail traces, slowest first (deterministic order)."""
        return [
            {
                "trace_id": trace_id,
                "duration_ns": -neg_duration,
                "root": _record_json(root),
                "spans": [_record_json(rec) for rec in spans],
            }
            for neg_duration, trace_id, root, spans in self._exemplars
        ]

    # -- post-mortem -------------------------------------------------------

    def bundle(self, metrics=None, fault_log=None,
               max_fault_lines: int = 50) -> dict:
        """Snapshot everything into one JSON-safe, run-deterministic dict."""
        hosts = {
            host: {
                "bytes": self._ring_bytes[host],
                "records": [_record_json(rec) for _cost, rec in ring],
            }
            for host, ring in sorted(self._rings.items())
        }
        doc = {
            "version": 1,
            "cap_bytes": self.cap_bytes,
            "tail_threshold_ns": self.tail_threshold_ns,
            "trips": list(self.trips),
            "hosts": hosts,
            "exemplars": self.exemplars(),
            "records_total": self.records_total,
            "evictions_total": self.evictions_total,
            "pinned_total": self.pinned_total,
        }
        if metrics is not None:
            doc["metrics"] = {
                "scalars": metrics.scalars(),
                "histograms": {
                    metric.name: metric.summary()
                    for metric in metrics
                    if hasattr(metric, "summary")
                },
            }
        if fault_log is not None:
            lines = [event.line() for event in fault_log]
            doc["fault_log_tail"] = lines[-max_fault_lines:]
        self._rt.METRICS.counter(names.FLIGHT_BUNDLES).inc()
        return doc

    def dump(self, path: str, metrics=None, fault_log=None,
             max_fault_lines: int = 50) -> dict:
        doc = self.bundle(metrics=metrics, fault_log=fault_log,
                          max_fault_lines=max_fault_lines)
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
        return doc

    def __repr__(self) -> str:
        return (f"<FlightRecorder hosts={len(self._rings)} "
                f"bytes={self.buffer_bytes()}/{self.cap_bytes} "
                f"exemplars={len(self._exemplars)} trips={len(self.trips)}>")


class NullFlightRecorder:
    """Disabled recorder: failure sites skip even argument construction."""

    enabled = False

    def on_span(self, span: Span) -> None:
        return None

    def trip(self, reason: str, now: float, detail: str = "") -> None:
        return None

    def bundle(self, metrics=None, fault_log=None,
               max_fault_lines: int = 50) -> dict:
        return {}

    def __repr__(self) -> str:
        return "<NullFlightRecorder>"


#: The process-wide default (see :mod:`repro.obs.runtime`).
NULL_RECORDER = NullFlightRecorder()
