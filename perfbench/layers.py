"""Per-layer host cost of one run, measured from outside the program.

The layers are the ``src/repro`` packages in :data:`PACKAGE_LAYER`.  A
traced pass (:func:`traced`) installs three instruments from this file
and removes them afterwards.  The program's own tracer stays off, so
``obs`` costs what an untraced run pays.

* **Layer spans.**  A layer's entry points are the public methods (and
  ``__init__``) of every class its modules define, and its public
  module functions.  A call into one from another layer opens a span; a
  generator entry point's span accrues host time over all of its
  resumptions.  Host time is charged to the innermost open span, so a
  layer's self time is its span time minus the spans of other layers
  nested in it.  A call from a layer into itself opens no span.
* **Spawned loops.**  Dispatchers, CQ collectors, agent ticks and other
  spawned processes run outside any span.  The kernel profiler's process
  plane (:class:`LayerProfiler`) moves each resumption's kernel-level
  host time, events and calls to the layer whose code the process runs,
  looked up by process name.
* **Event billing.**  A wrapper on ``Simulator.schedule`` bills each
  scheduled event to the innermost open layer.

The kernel's API is not spanned, so its host time goes to the calling
layer: spanning its millions of calls would cost more than the work
they do.  ``Simulator`` methods are counted (``calls.sim``), events and
queues are left alone, and ``sim`` is billed for the event loop
(``Simulator.run``) and queue insertion (``Simulator.schedule``).

Host time outside every span and outside ``Simulator.run`` is billed to
``other``, the benchmark's own code.  The instruments' own cost lands in
the layer where it is paid; ``trace_overhead_x`` gives its total.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import importlib
import inspect
import os
import pkgutil
import signal
import types
from time import perf_counter_ns

import repro
from repro.sim import Process, Simulator
from repro.sim.profile import KernelProfiler, normalize, profiled

#: src/repro/<package> -> layer.  Entry points: see the module docstring.
#: ``analysis`` and ``cluster`` (the fleet economics model) and the CLI
#: run in no workload, so they have no layer.
PACKAGE_LAYER = {
    "sim": "sim",                    # kernel: event loop, queue insertion
    "cxl": "cxl",                    # memsys line/NT/DMA ops, links, MHDs
    "channel": "channel",            # rings, RPC endpoints, dispatchers
    "datapath": "datapath",          # vSSD/vaccel/UDP clients, device proxy
    "pcie": "pcie",                  # device models and their engines
    "health": "health",              # AIMD pacer, retry budget, scoring
    "orchestrator": "orchestrator",  # orchestrator, agents, leases
    "core": "core",                  # PciePool wiring, MHD monitor
    "obs": "obs",                    # tracer, metrics, flight recorder
    "faults": "faults",              # campaigns and the injector
    "scenarios": "scenarios",        # runbook runner and auditors
}
LAYERS = tuple(PACKAGE_LAYER.values())
OTHER = "other"
#: The instruments' own code, in the sampled view (:meth:`Sampler.by_layer`).
SPANS = "spans"
#: Kernel-loop time inside ``Simulator.run`` outside every span; kept
#: apart while steps are re-billed, reported as part of ``sim``.
KERNEL = "sim.run"
#: Not instrumented: the profiler this pass plugs into.
SKIP_MODULES = ("repro.sim.profile",)
#: Classes whose instances the pass keeps, to read their counters.
COUNTED = ("Accelerator", "AimdWindow", "CxlLink", "DeviceServer", "Nic",
           "PciePool", "PoolingAgent", "RetryBudget", "RpcEndpoint",
           "Simulator", "Ssd")
#: Client operations counted as ``datapath.ops``.
DATAPATH_OPS = ("RemoteSsdClient.write", "RemoteSsdClient.read",
                "RemoteSsdClient.write_burst", "RemoteSsdClient.flush",
                "RemoteAcceleratorClient.run_job",
                "RemoteAcceleratorClient.run_jobs", "UdpSocket.sendto")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


@functools.lru_cache(maxsize=None)
def _file_layer(filename):
    """The layer whose package holds source file ``filename``."""
    rel = os.path.relpath(filename, _REPRO_DIR)
    if rel.startswith(".."):
        return OTHER
    return PACKAGE_LAYER.get(rel.split(os.sep)[0], OTHER)


class Meter:
    """Charges host time, events and calls to the innermost open layer."""

    def __init__(self):
        buckets = LAYERS + (OTHER, KERNEL)
        self.stack = [OTHER]
        self.self_ns = dict.fromkeys(buckets, 0)
        self.events = dict.fromkeys(buckets, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.resumptions = dict.fromkeys(buckets, 0)    # process plane
        self.ncalls = {}        # entry point -> calls from any layer
        self.instances = {name: [] for name in COUNTED}
        self.proc_layer = {}    # process name up to ':' -> layer
        self.in_api = False     # inside a counted kernel API call
        # Kernel-level segments, events and calls since the last kernel
        # hook: the part inside a finished step moves to its process.
        self.kernel_segs = []
        self.kernel_events = []
        self.kernel_calls = []
        self.t = perf_counter_ns()

    def start(self):
        self.t = perf_counter_ns()

    def stop(self):
        now = perf_counter_ns()
        self.self_ns[self.stack[-1]] += now - self.t
        self.t = now

    def enter(self, layer):
        now = perf_counter_ns()
        top = self.stack[-1]
        self.self_ns[top] += now - self.t
        if top == KERNEL:
            self.kernel_segs.append((self.t, now))
        self.t = now
        self.stack.append(layer)

    def exit(self):
        now = perf_counter_ns()
        top = self.stack.pop()
        self.self_ns[top] += now - self.t
        if top == KERNEL:
            self.kernel_segs.append((self.t, now))
        self.t = now

    def call_into(self, layer, top):
        self.calls[layer] += 1
        if top == KERNEL:
            self.kernel_calls.append((perf_counter_ns(), layer))

    def span(self, layer, gen):
        """Drive generator ``gen``, timing each resumption as ``layer``.

        :meth:`enter` and :meth:`exit` are inlined: this runs once per
        resumption of every spanned generator.
        """
        stack, self_ns, segs = self.stack, self.self_ns, self.kernel_segs
        value = error = None
        while True:
            now = perf_counter_ns()
            top = stack[-1]
            self_ns[top] += now - self.t
            if top == KERNEL:
                segs.append((self.t, now))
            self.t = now
            stack.append(layer)
            try:
                if error is None:
                    event = gen.send(value)
                else:
                    event = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                now = perf_counter_ns()
                stack.pop()
                self_ns[layer] += now - self.t
                self.t = now
            value = error = None
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - re-raised in gen
                error = exc

    def end_step(self, component, wall_ns, now):
        """Move a finished step's kernel-level share to its process."""
        segs = self.kernel_segs
        if self.stack[-1] == KERNEL:
            self.self_ns[KERNEL] += now - self.t
            segs.append((self.t, now))
            self.t = now
        layer = self.proc_layer.get(component, "sim")
        self.resumptions[layer] += 1
        if layer != "sim":
            start = now - wall_ns
            moved = 0
            for a, b in segs:
                if b > start:
                    moved += b - (a if a > start else start)
            self.self_ns[KERNEL] -= moved
            self.self_ns[layer] += moved
            if self.kernel_events:
                n = sum(1 for t in self.kernel_events if t >= start)
                self.events[KERNEL] -= n
                self.events[layer] += n
            if self.kernel_calls and layer in self.calls:
                self.calls[layer] -= sum(
                    1 for t, callee in self.kernel_calls
                    if t >= start and callee == layer)
        self.kernel_boundary()

    def kernel_boundary(self):
        """An event finished: no later step can own what came before."""
        if self.kernel_segs:
            self.kernel_segs.clear()
        if self.kernel_events:
            self.kernel_events.clear()
        if self.kernel_calls:
            self.kernel_calls.clear()

    def note_process(self, name, generator):
        self.proc_layer[name.partition(":")[0]] = self.layer_of(generator)

    def layer_of(self, generator):
        """The layer whose code a spawned generator runs."""
        code = getattr(generator, "gi_code", None)
        if code is None:
            return OTHER
        if code is _SPAN_CODE:
            return generator.gi_frame.f_locals["layer"]
        return _file_layer(code.co_filename)

    def by_layer(self):
        """(self_ns, events) per reported layer, kernel loop in ``sim``."""
        self_ns, events = dict(self.self_ns), dict(self.events)
        self_ns["sim"] += self_ns.pop(KERNEL)
        events["sim"] += events.pop(KERNEL)
        return self_ns, events


_SPAN_CODE = Meter.span.__code__


class LayerProfiler(KernelProfiler):
    """The kernel profiler's process plane, billing steps to layers.

    Its kernel plane is cut down to a boundary mark: per-event wall time
    is not needed here, and normalising every event name would dominate
    the pass.
    """

    def __init__(self, meter):
        super().__init__()
        self.meter = meter

    def on_event(self, event, sim_now, wall_ns, wall_end_ns):
        self.meter.kernel_boundary()

    def on_process(self, name, wall_ns):
        now = perf_counter_ns()
        component = name.partition(":")[0]
        self.meter.end_step(component, wall_ns, now)
        cell = self.components.get(component)
        if cell is None:
            self.components[component] = [1, wall_ns]
        else:
            cell[0] += 1
            cell[1] += wall_ns

    def top_components(self, n):
        """[(process, layer, resumptions, wall s)] for the ``n`` busiest."""
        merged = {}
        for component, (count, wall_ns) in self.components.items():
            row = merged.setdefault(normalize(component), [
                self.meter.proc_layer.get(component, "sim"), 0, 0])
            row[1] += count
            row[2] += wall_ns
        rows = sorted(merged.items(), key=lambda kv: (-kv[1][2], kv[0]))
        return [(name, layer, count, wall_ns / 1e9)
                for name, (layer, count, wall_ns) in rows[:n]]


def _function(raw):
    """The plain function behind a class or module attribute, or None."""
    if isinstance(raw, (staticmethod, classmethod)):
        raw = raw.__func__
    return raw if isinstance(raw, types.FunctionType) else None


def entry_points():
    """(owner, attribute, layer) for every entry point of every layer."""
    found, seen = [], set()
    for package, layer in PACKAGE_LAYER.items():
        root = importlib.import_module(f"repro.{package}")
        names = [root.__name__] + [
            info.name for info in
            pkgutil.walk_packages(root.__path__, f"{root.__name__}.")]
        for module_name in names:
            if module_name in SKIP_MODULES:
                continue
            module = importlib.import_module(module_name)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module_name:
                    continue
                if isinstance(obj, types.FunctionType):
                    if not name.startswith("_"):
                        found.append((module, name, layer))
                elif (isinstance(obj, type) and obj not in seen
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    seen.add(obj)
                    found.extend(
                        (obj, attr, layer) for attr, raw in vars(obj).items()
                        if (attr == "__init__" or not attr.startswith("_"))
                        and _function(raw) is not None)
    return found


def _timed(meter, layer, name, fn):
    """Count entry point ``fn``; span it when entered from another layer."""
    stack, ncalls = meter.stack, meter.ncalls
    ncalls.setdefault(name, 0)
    if inspect.isgeneratorfunction(fn):
        span = meter.span

        @functools.wraps(fn)
        def gen_entry(*args, **kwargs):
            ncalls[name] += 1
            gen = fn(*args, **kwargs)
            top = stack[-1]
            if top == layer:
                return gen
            meter.call_into(layer, top)
            return span(layer, gen)
        return gen_entry

    enter, leave = meter.enter, meter.exit

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        ncalls[name] += 1
        top = stack[-1]
        if top == layer:
            return fn(*args, **kwargs)
        meter.call_into(layer, top)
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()
    return entry


def _kernel_api(meter, name, fn):
    """Count a kernel API call; the calling layer keeps its host time.

    ``calls.sim`` counts the outermost calls made inside another
    layer's span.
    """
    stack, ncalls, calls = meter.stack, meter.ncalls, meter.calls
    ncalls.setdefault(name, 0)

    @functools.wraps(fn)
    def api(*args, **kwargs):
        ncalls[name] += 1
        if meter.in_api or stack[-1] == KERNEL:
            return fn(*args, **kwargs)
        calls["sim"] += 1
        meter.in_api = True
        try:
            return fn(*args, **kwargs)
        finally:
            meter.in_api = False
    return api


def _kernel_run(meter, fn):
    @functools.wraps(fn)
    def run(sim, until=None):
        meter.enter(KERNEL)
        try:
            return fn(sim, until)
        finally:
            meter.exit()
    return run


def _billed_schedule(meter, fn):
    """Bill the event to the calling layer; time the insertion as sim."""
    stack, events, self_ns = meter.stack, meter.events, meter.self_ns
    segs, kernel_events = meter.kernel_segs, meter.kernel_events

    @functools.wraps(fn)
    def schedule(sim, event, delay=0.0):
        owner = stack[-1]
        events[owner] += 1
        now = perf_counter_ns()
        self_ns[owner] += now - meter.t
        if owner == KERNEL:
            segs.append((meter.t, now))
            kernel_events.append(now)
        meter.t = now
        try:
            return fn(sim, event, delay)
        finally:
            end = perf_counter_ns()
            self_ns["sim"] += end - meter.t
            meter.t = end
    return schedule


def _noting_process(meter, fn):
    @functools.wraps(fn)
    def init(proc, sim, generator, name=""):
        if not name and getattr(generator, "gi_code", None) is _SPAN_CODE:
            # Keep the default name the unwrapped generator would give.
            name = getattr(generator.gi_frame.f_locals["gen"],
                           "__name__", "")
        fn(proc, sim, generator, name)
        meter.note_process(proc.name, generator)
    return init


def _registering(meter, class_name, fn):
    @functools.wraps(fn)
    def init(obj, *args, **kwargs):
        fn(obj, *args, **kwargs)
        meter.instances[class_name].append(obj)
    return init


def _instrument(meter, owner, attr, layer, raw):
    fn = _function(raw)
    if owner is Simulator and attr == "run":
        new = _kernel_run(meter, fn)
    elif owner is Simulator and attr == "schedule":
        new = _billed_schedule(meter, fn)
    else:
        if owner is Process and attr == "__init__":
            fn = _noting_process(meter, fn)
        elif attr == "__init__" and owner.__name__ in COUNTED:
            fn = _registering(meter, owner.__name__, fn)
        name = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        if layer == "sim":
            new = _kernel_api(meter, name, fn)
        else:
            new = _timed(meter, layer, name, fn)
    if isinstance(raw, (staticmethod, classmethod)):
        return type(raw)(new)
    return new


@contextlib.contextmanager
def traced(meter):
    """Instrument every layer for the body, metered by ``meter``."""
    patches = []
    try:
        for owner, attr, layer in entry_points():
            raw = vars(owner)[attr]
            if layer == "sim" and owner is not Simulator and not (
                    owner is Process and attr == "__init__"):
                continue    # events, queues: the kernel's own plumbing
            patches.append((owner, attr, raw))
            setattr(owner, attr, _instrument(meter, owner, attr, layer, raw))
        profiler = LayerProfiler(meter)
        with profiled(profiler):
            meter.start()
            try:
                yield profiler
            finally:
                meter.stop()
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


class Sampler:
    """Host self time per function, sampled on SIGPROF (process CPU time)."""

    def __init__(self, interval_s=0.002):
        self.interval_s = interval_s
        self.counts = {}
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, _signum, frame):
        code = frame.f_code
        self.counts[code] = self.counts.get(code, 0) + 1

    def top(self, n):
        """[(function, share of samples)] for the ``n`` largest."""
        merged = {}
        for code, count in self.counts.items():
            label = _label(code)
            merged[label] = merged.get(label, 0) + count
        total = sum(merged.values()) or 1
        rows = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(label, count / total) for label, count in rows[:n]]

    def by_layer(self):
        """{layer: share of samples} by the file of the sampled code; the
        instruments' own code counts as :data:`SPANS`."""
        shares = {}
        for code, count in self.counts.items():
            layer = (SPANS if code.co_filename == __file__
                     else _file_layer(code.co_filename))
            shares[layer] = shares.get(layer, 0) + count
        total = sum(shares.values()) or 1
        return {layer: count / total for layer, count in shares.items()}


def _label(code):
    if code.co_filename == __file__:
        return "[perfbench layer spans]"
    rel = os.path.relpath(code.co_filename, _REPRO_DIR)
    where = code.co_filename if rel.startswith("..") else rel
    return f"{where}:{code.co_firstlineno} {code.co_qualname}"


def counters(meter, metrics_delta):
    """Layer counters: {name: (value, unit, base of a ratio or None)}."""
    calls = meter.ncalls.get
    metric = metrics_delta.get

    def total(class_name, attr):
        return sum(getattr(obj, attr) for obj in meter.instances[class_name])

    def ratio(part, whole):
        return part / whole if whole else 0.0

    polls = calls("RingReceiver.try_recv", 0)
    empty = total("RpcEndpoint", "empty_polls")
    ops = sum(calls(name, 0) for name in DATAPATH_OPS)
    cq_polls = calls("CompletionEntry.decode", 0)
    completions = (total("Ssd", "commands_completed")
                   + total("Nic", "frames_sent")
                   + total("Nic", "frames_received")
                   + total("Accelerator", "jobs_completed"))
    doorbells = metric("proxy.doorbells_forwarded", 0.0)
    pacer_polls = calls("AimdWindow.can_submit", 0)
    pacer_calls = calls("AimdWindow.wait_for_slot", 0)
    return {
        "channel.polls": (polls, "count", None),
        "channel.empty_polls": (empty, "count", None),
        "channel.polls_elided": (
            total("RpcEndpoint", "polls_elided"), "count", None),
        "channel.useful_poll_ratio": (
            ratio(polls - empty, polls), "ratio", f"of {polls} polls"),
        "channel.rpc_retries": (total("RpcEndpoint", "retries"), "count",
                                None),
        "datapath.ops": (ops, "count", None),
        "datapath.cq_polls": (cq_polls, "count", None),
        "datapath.useful_cq_poll_ratio": (
            ratio(completions, cq_polls), "ratio",
            f"{completions} completions / {cq_polls} CQ polls"),
        "datapath.doorbell_forward_ratio": (
            ratio(doorbells, ops), "ratio",
            f"{doorbells:.0f} forwarded doorbells / {ops} ops"),
        "datapath.hedges": (
            metric("vssd.hedges", 0.0) + metric("vaccel.hedges", 0.0)
            + metric("udp.hedges", 0.0), "count", None),
        "datapath.failovers": (
            metric("vssd.failovers", 0.0) + metric("vaccel.failovers", 0.0),
            "count", None),
        "health.pacer_polls": (pacer_polls, "count", None),
        "health.pacer_waits": (total("AimdWindow", "paced_waits"), "count",
                               None),
        "health.useful_pacer_poll_ratio": (
            ratio(pacer_calls, pacer_polls), "ratio",
            f"{pacer_calls} slots / {pacer_polls} pacer polls"),
        "health.admission_rejects": (
            total("DeviceServer", "admission_rejects"), "count", None),
        "health.retry_denials": (total("RetryBudget", "denied"), "count",
                                 None),
        "cxl.line_ops": (total("CxlLink", "line_ops"), "count", None),
        "cxl.dma_ops": (calls("HostMemorySystem.dma_read", 0)
                        + calls("HostMemorySystem.dma_write", 0), "count",
                        None),
        "pcie.commands": (completions, "count", None),
        "orchestrator.ticks": (meter.resumptions["orchestrator"], "count",
                               None),
        "orchestrator.lease_renewals": (
            total("PoolingAgent", "lease_renewals"), "count", None),
        "core.mhd_probes": (calls("HealthScorer.observe", 0), "count", None),
        "core.channels_rebuilt": (
            total("PciePool", "channels_rebuilt"), "count", None),
        "scenarios.audit_samples": (
            metric("scen.invariant_checks", 0.0), "count", None),
        "faults.injected": (metric("faults.injected", 0.0), "count", None),
    }
