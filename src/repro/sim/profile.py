"""Wall-clock profiling of the discrete-event kernel itself.

ROADMAP item 2 (the simulator-core speed overhaul) needs a measured
baseline before anyone refactors: how many events per wall-second does
the kernel sustain, how much simulated time does one wall-second buy,
and *which components* burn the wall clock.  This module answers those
three questions without touching simulated state — ``perf_counter_ns``
readings live only in the profiler, never in an event, a record, or an
rng stream, so a profiled run is bit-identical (in sim terms) to an
unprofiled one.

Attach either per simulator (``sim.attach_profiler(p)``) or process-wide
via :data:`DEFAULT_PROFILER`, which every new :class:`Simulator` adopts
at construction — that is how ``python -m repro profile`` covers
scenarios that build their own simulators internally.  When no profiler
is attached the kernel's only cost is one ``is None`` branch per event.

Two measurement planes:

* the **kernel plane** counts every processed event and attributes its
  ``_process()`` wall time to a normalized event-source key (digits
  collapsed to ``#``, so ``vssd0@h2.cmd17`` and ``vssd0@h2.cmd18`` are
  one source);
* the **process plane** measures each generator resumption inside
  :meth:`Process._step` and attributes it to the process's component
  (name up to the first ``:``) — that is where the actual model code
  runs, so it is the plane that names refactor targets.
"""

from __future__ import annotations

import json
import re
from time import perf_counter_ns
from typing import Optional

#: Process-wide default adopted by every Simulator built while set.
DEFAULT_PROFILER: Optional["KernelProfiler"] = None

_DIGITS = re.compile(r"\d+")

#: Required keys of a BENCH_simcore.json document (CI schema check).
BENCH_SCHEMA_KEYS = (
    "bench", "events", "wall_s", "events_per_sec",
    "sim_ns", "sim_s_per_wall_s", "components", "event_sources",
)


def normalize(name: str) -> str:
    """Collapse instance identity out of an event/process name."""
    head = name.split(":", 1)[0] if ":" in name else name
    return _DIGITS.sub("#", head) or "<anonymous>"


class KernelProfiler:
    """Per-component event counts and wall-time attribution."""

    def __init__(self) -> None:
        self.events = 0
        self.event_wall_ns = 0
        #: normalized event name -> [count, wall_ns]
        self.event_sources: dict[str, list] = {}
        #: process component -> [resumptions, wall_ns]
        self.components: dict[str, list] = {}
        #: Closed phases: {name, events, wall_ns (span), self_ns}.
        self.phases: list[dict] = []
        self._phase: Optional[list] = None
        self._first_wall_ns: Optional[int] = None
        self._last_wall_ns = 0
        self._sim_first_ns: Optional[float] = None
        self._sim_last_ns = 0.0

    # -- kernel plane ------------------------------------------------------

    def on_event(self, event, sim_now: float, wall_ns: int,
                 wall_end_ns: int) -> None:
        self.events += 1
        self.event_wall_ns += wall_ns
        if self._first_wall_ns is None:
            self._first_wall_ns = wall_end_ns - wall_ns
            self._sim_first_ns = sim_now
        self._last_wall_ns = wall_end_ns
        self._sim_last_ns = sim_now
        key = normalize(event.name or type(event).__name__)
        cell = self.event_sources.get(key)
        if cell is None:
            self.event_sources[key] = [1, wall_ns]
        else:
            cell[0] += 1
            cell[1] += wall_ns

    # -- process plane -----------------------------------------------------

    def on_process(self, name: str, wall_ns: int) -> None:
        key = normalize(name)
        cell = self.components.get(key)
        if cell is None:
            self.components[key] = [1, wall_ns]
        else:
            cell[0] += 1
            cell[1] += wall_ns

    # -- phase marking -----------------------------------------------------

    def mark_phase(self, name: str) -> None:
        """Open a named phase; the previous phase (if any) closes now.

        A phase groups everything profiled between two marks (e.g. one
        bench workload), with two times per phase: **span** wall time —
        mark to mark, including kernel bookkeeping between events — and
        **self** time, the wall time actually spent inside event
        ``_process()`` calls.  A large span-minus-self gap on a phase
        points at queue overhead, not model code.
        """
        now = perf_counter_ns()
        self._close_phase(now)
        self._phase = [name, self.events, self.event_wall_ns, now]

    def _close_phase(self, now: int) -> None:
        if self._phase is None:
            return
        name, events0, self0, wall0 = self._phase
        self.phases.append({
            "name": name,
            "events": self.events - events0,
            "wall_ns": now - wall0,
            "self_ns": self.event_wall_ns - self0,
        })
        self._phase = None

    # -- reporting ---------------------------------------------------------

    @property
    def wall_ns(self) -> int:
        """Wall span from first to last profiled event."""
        if self._first_wall_ns is None:
            return 0
        return self._last_wall_ns - self._first_wall_ns

    @property
    def sim_ns(self) -> float:
        """Simulated time advanced across the profiled window."""
        if self._sim_first_ns is None:
            return 0.0
        return self._sim_last_ns - self._sim_first_ns

    def report(self, top: int = 12) -> dict:
        self._close_phase(perf_counter_ns())
        wall_s = self.wall_ns / 1e9
        events_per_sec = self.events / wall_s if wall_s > 0 else 0.0
        sim_per_wall = (self.sim_ns / 1e9) / wall_s if wall_s > 0 else 0.0
        total = self.event_wall_ns or 1
        components = sorted(
            self.components.items(), key=lambda kv: (-kv[1][1], kv[0])
        )[:top]
        sources = sorted(
            self.event_sources.items(), key=lambda kv: (-kv[1][0], kv[0])
        )[:top]
        return {
            "bench": "simcore",
            "events": self.events,
            "wall_s": wall_s,
            "events_per_sec": events_per_sec,
            "sim_ns": self.sim_ns,
            "sim_s_per_wall_s": sim_per_wall,
            "event_wall_ns": self.event_wall_ns,
            "components": [
                {"name": name, "calls": calls, "wall_ns": ns,
                 "share": ns / total}
                for name, (calls, ns) in components
            ],
            "event_sources": [
                {"name": name, "count": count, "wall_ns": ns}
                for name, (count, ns) in sources
            ],
            "phases": [dict(phase) for phase in self.phases],
        }

    def render(self, top: int = 12) -> str:
        doc = self.report(top=top)
        lines = [
            f"events            {doc['events']:>12,}",
            f"wall              {doc['wall_s']:>12.3f} s",
            f"events/s          {doc['events_per_sec']:>12,.0f}",
            f"sim time          {doc['sim_ns'] / 1e9:>12.3f} s",
            f"sim-s per wall-s  {doc['sim_s_per_wall_s']:>12.2f}",
            "",
            f"{'component':<28} {'resumptions':>12} {'wall ms':>9} "
            f"{'share':>6}",
        ]
        lines.extend(
            f"{row['name']:<28} {row['calls']:>12,} "
            f"{row['wall_ns'] / 1e6:>9.1f} {row['share']:>6.1%}"
            for row in doc["components"]
        )
        lines.append("")
        lines.append(f"{'event source':<28} {'events':>12}")
        lines.extend(f"{row['name']:<28} {row['count']:>12,}"
                     for row in doc["event_sources"])
        if doc["phases"]:
            lines.append("")
            lines.append(
                f"{'phase':<28} {'events':>12} {'span ms':>9} "
                f"{'self ms':>9} {'self':>6}"
            )
            lines.extend(
                f"{row['name']:<28} {row['events']:>12,} "
                f"{row['wall_ns'] / 1e6:>9.1f} "
                f"{row['self_ns'] / 1e6:>9.1f} "
                f"{row['self_ns'] / (row['wall_ns'] or 1):>6.1%}"
                for row in doc["phases"]
            )
        return "\n".join(lines)


def validate_bench_doc(doc: dict) -> list[str]:
    """Schema problems of a BENCH_simcore.json document ([] when valid)."""
    problems = [f"missing key {key!r}" for key in BENCH_SCHEMA_KEYS
                if key not in doc]
    if problems:
        return problems
    if doc["bench"] != "simcore":
        problems.append(f"bench is {doc['bench']!r}, expected 'simcore'")
    problems.extend(
        f"{key} must be a positive int" for key in ("events",)
        if not isinstance(doc[key], int) or doc[key] <= 0)
    problems.extend(
        f"{key} must be a positive number"
        for key in ("wall_s", "events_per_sec", "sim_ns", "sim_s_per_wall_s")
        if not isinstance(doc[key], (int, float)) or doc[key] <= 0)
    for key in ("components", "event_sources"):
        rows = doc[key]
        if not isinstance(rows, list) or not rows:
            problems.append(f"{key} must be a non-empty list")
            continue
        for row in rows:
            if not isinstance(row, dict) or "name" not in row:
                problems.append(f"{key} rows must be dicts with a name")
                break
    # Optional keys (the headline bench writes them; a bare
    # ``python -m repro profile`` report does not): validated if present.
    if "polls_elided" in doc and (not isinstance(doc["polls_elided"], int)
                                  or doc["polls_elided"] < 0):
        problems.append("polls_elided must be a non-negative int")
    if "phases" in doc:
        rows = doc["phases"]
        if not isinstance(rows, list):
            problems.append("phases must be a list")
        else:
            for row in rows:
                if (not isinstance(row, dict) or "name" not in row
                        or "events" not in row):
                    problems.append(
                        "phases rows must be dicts with name and events")
                    break
    return problems


def write_bench(doc: dict, path: str = "BENCH_simcore.json") -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


class profiled:
    """Context manager installing ``profiler`` as the process default."""

    def __init__(self, profiler: Optional[KernelProfiler] = None):
        self.profiler = profiler if profiler is not None else KernelProfiler()
        self._saved: Optional[KernelProfiler] = None

    def __enter__(self) -> KernelProfiler:
        global DEFAULT_PROFILER
        self._saved = DEFAULT_PROFILER
        DEFAULT_PROFILER = self.profiler
        return self.profiler

    def __exit__(self, *exc) -> None:
        global DEFAULT_PROFILER
        DEFAULT_PROFILER = self._saved


__all__ = [
    "BENCH_SCHEMA_KEYS",
    "DEFAULT_PROFILER",
    "KernelProfiler",
    "normalize",
    "perf_counter_ns",
    "profiled",
    "validate_bench_doc",
    "write_bench",
]
