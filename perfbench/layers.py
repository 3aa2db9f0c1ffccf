"""The traced run: spans around each layer's public functions.

:class:`LayerTracer` wraps public methods of the engine, plan cache,
code generator, event log, metrics, observability and service classes
from the benchmark's side, without touching ``src/``.  Every call made
while the wrappers are installed becomes one span

    ``(span_id, parent_id, name, start, end, thread, request, note)``

kept in memory (``parent_id`` is the enclosing span on the same thread,
``0`` at the top; ``request`` is the service request id, or the
benchmark's operation index on the in-situ path) and written out as JSON
when the run ends.  :func:`layer_metrics` turns the spans into the
per-layer metrics listed in ``perfbench/README.md``.

:class:`CountingRegistry` is a metrics registry that forwards to a real
one and counts every instrument update, so the metric traffic per
execution is an exact count measured where it happens.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from .stats import covered, median, merge_intervals, self_times

EXEC_FAMILY = ("host.execute_prepared", "host.execute_batch")
CLSIM_ACCOUNTING = ("clsim.record", "clsim.accounting")


class LayerTracer:
    """Installs span wrappers on layer entry points (see module doc)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._by_bindings: dict[int, int] = {}
        self.counts = OpCounts(self)

    # -- per-thread state ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[int]) -> None:
        """Tag spans opened on this thread with ``request`` (the in-situ
        loop's operation index) until changed."""
        self._local.request = request

    def in_exec(self) -> bool:
        """Whether this thread is inside an engine execution span."""
        return getattr(self._local, "exec_depth", 0) > 0

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *,
             request: Optional[Callable] = None,
             note: Optional[Callable] = None,
             mark: bool = False, exec_span: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(args, result)`` names the request(s) the call served;
        ``note(args, result)`` stores one extra fact (a hit flag, a batch
        size).  A ``mark`` records nothing for a ``None`` result and a
        zero-length span at return otherwise — for blocking takes, whose
        idle wait is not work.  ``exec_span`` marks engine executions
        (metric ops counted inside them are per-execution ops).
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        tracer = self
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent_sid, parent_req = stack[-1] if stack else (
                0, getattr(local, "request", None))
            sid = next(ids)
            stack.append((sid, parent_req))
            if exec_span:
                local.exec_depth = getattr(local, "exec_depth", 0) + 1
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if exec_span:
                    local.exec_depth -= 1
                if not (mark and result is None):
                    req = parent_req
                    if request is not None:
                        try:
                            req = request(args, result)
                        except Exception:
                            req = parent_req
                    extra = None
                    if note is not None:
                        try:
                            extra = note(args, result)
                        except Exception:
                            extra = None
                    spans.append((sid, parent_sid, name,
                                  end if mark else start, end,
                                  threading.get_ident(), req, extra))

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def install(self, rp) -> None:
        """Wrap the public entry points of every layer (``rp`` is the
        namespace :func:`perfbench.workloads.load_repro` returns)."""
        by_bindings = self._by_bindings

        def submitted(args, result):
            by_bindings[id(result.prepared.bindings)] = result.id
            return result.id

        def prepared_req(args, result):
            return by_bindings.get(id(args[1].bindings))

        def batch_reqs(args, result):
            return [by_bindings.get(id(p.bindings)) for p in args[1]]

        def members(args, result):
            return len(args[1])

        def resolved(args, result):
            by_bindings.pop(id(args[0].prepared.bindings), None)
            return args[0].id

        E = rp.DerivedFieldEngine
        self.wrap(E, "compile", "expr.compile")
        self.wrap(E, "prepare", "host.prepare")
        self.wrap(E, "execute", "host.execute")
        self.wrap(E, "execute_prepared", "host.execute_prepared",
                  request=prepared_req, note=lambda a, r: 1,
                  exec_span=True)
        self.wrap(E, "execute_batch", "host.execute_batch",
                  request=batch_reqs, note=members, exec_span=True)
        self.wrap(rp.PlanCache, "get", "strategies.plan_lookup",
                  note=lambda a, r: r is not None)
        self.wrap(rp.FusionStrategy, "build_plan", "strategies.build_plan")
        self.wrap(rp.engine_module, "compile_plan", "codegen.compile_plan")
        self.wrap(rp.CompiledPlan, "launch", "codegen.launch")
        self.wrap(rp.EventLog, "record", "clsim.record")
        for attr in ("event_counts", "timing", "alloc_stats",
                     "reset_instrumentation"):
            self.wrap(rp.CLEnvironment, attr, "clsim.accounting")
        for attr in ("record_admitted", "record_batch", "record_execution",
                     "record_result"):
            self.wrap(rp.ServiceMetrics, attr, "metrics.service")
        self.wrap(rp.Observability, "on_request_done", "obs.on_done",
                  request=lambda a, r: a[1].id)
        for attr in ("span", "add_device_events", "counter", "note_plan",
                     "attach_result"):
            self.wrap(rp.FlightRecorder, attr, "obs.recorder")
        self.wrap(rp.Span, "finish", "obs.recorder")
        self.wrap(rp.DerivedFieldService, "submit", "service.submit",
                  request=submitted)
        self.wrap(rp.AdmissionQueue, "offer", "service.offer",
                  request=lambda a, r: a[1].id)
        self.wrap(rp.AdmissionQueue, "take", "service.take",
                  request=lambda a, r: r.id, mark=True)
        self.wrap(rp.AdmissionQueue, "take_matching",
                  "service.take_matching",
                  request=lambda a, r: [x.id for x in r])
        self.wrap(rp.LeastLoadedScheduler, "pick", "service.schedule")
        self.wrap(rp.DeviceWorker, "assign_batch", "service.assign",
                  request=lambda a, r: [x.id for x in a[1]], note=members)
        self.wrap(rp.ServiceRequest, "resolve_served", "service.resolve",
                  request=resolved)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def take_spans(self) -> list[tuple]:
        """Detach and return the spans recorded so far."""
        spans, self.spans[:] = list(self.spans), []
        return spans

    def write_json(self, path: Path, spans: Sequence[tuple]) -> None:
        fields = ["id", "parent", "name", "start", "end", "thread",
                  "request", "note"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": [list(s) for s in spans]},
                      handle, separators=(",", ":"))


class _CountingInstrument:
    """Forwards to a real instrument and counts its updates."""

    __slots__ = ("_inner", "_counts")

    def __init__(self, inner, counts: "OpCounts"):
        self._inner = inner
        self._counts = counts

    def labels(self, **labels):
        return _CountingInstrument(self._inner.labels(**labels),
                                   self._counts)

    def inc(self, amount=1.0):
        self._counts.tick()
        self._inner.inc(amount)

    def dec(self, amount=1.0):
        self._counts.tick()
        self._inner.dec(amount)

    def set(self, value):
        self._counts.tick()
        self._inner.set(value)

    def set_max(self, value):
        self._counts.tick()
        self._inner.set_max(value)

    def observe(self, value):
        self._counts.tick()
        self._inner.observe(value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class OpCounts:
    """Metric updates: all of them, and those inside engine executions.

    Each thread counts into its own slot, so concurrent updates from the
    submitter, dispatcher and worker threads are never lost.
    """

    def __init__(self, tracer: LayerTracer):
        self._slots: dict[int, list[int]] = {}
        self._tracer = tracer

    def tick(self) -> None:
        slot = self._slots.get(threading.get_ident())
        if slot is None:
            slot = self._slots.setdefault(threading.get_ident(), [0, 0])
        slot[0] += 1
        if self._tracer.in_exec():
            slot[1] += 1

    def snapshot(self) -> tuple[int, int]:
        """``(total, in_exec)`` so far, over every thread."""
        slots = list(self._slots.values())
        return sum(s[0] for s in slots), sum(s[1] for s in slots)


class CountingRegistry:
    """A registry that counts every instrument update of ``inner``."""

    def __init__(self, inner, counts: OpCounts):
        self._inner = inner
        self._counts = counts

    def counter(self, *args, **kwargs):
        return _CountingInstrument(self._inner.counter(*args, **kwargs),
                                   self._counts)

    def gauge(self, *args, **kwargs):
        return _CountingInstrument(self._inner.gauge(*args, **kwargs),
                                   self._counts)

    def histogram(self, *args, **kwargs):
        return _CountingInstrument(self._inner.histogram(*args, **kwargs),
                                   self._counts)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _outermost(spans_by_id: dict, sid: int, family: tuple) -> int:
    """The outermost ancestor of ``sid`` (itself included) whose name is
    in ``family``."""
    top = sid
    parent = spans_by_id[sid][1]
    while parent in spans_by_id:
        if spans_by_id[parent][2] in family:
            top = parent
        parent = spans_by_id[parent][1]
    return top


def layer_metrics(spans: Sequence[tuple], *, setup_spans: Sequence[tuple],
                  executions: int, requests: int, wall: float,
                  step_windows: Sequence[tuple[float, float]],
                  ops_total: int, ops_in_exec: int,
                  main_thread: int = 0, service: bool = False) -> dict:
    """Per-layer metrics of the traced blocks (see README for each).

    ``spans`` were recorded while ``executions`` field executions and
    ``requests`` operations ran over ``wall`` traced seconds, whose steps
    occupied ``step_windows``.  ``setup_spans`` were recorded while the
    workload was set up.  On a ``service`` workload, launches off
    ``main_thread`` are the device worker's.
    """
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    executions = max(executions, 1)
    requests = max(requests, 1)
    us = 1e6
    selfs = self_times([(s[0], s[1], s[3], s[4]) for s in spans])
    spans_by_id = {s[0]: s for s in spans}

    # Engine executions: one launch = one outermost execute_prepared /
    # execute_batch span; its self time folds in nested family spans.
    launches: dict[int, list] = {}
    for span in spans:
        if span[2] in EXEC_FAMILY:
            top = _outermost(spans_by_id, span[0], EXEC_FAMILY)
            entry = launches.setdefault(top, [0.0, 0])
            entry[0] += selfs[span[0]]
            if top == span[0]:
                entry[1] = span[7] or 1
    exec_self = [v[0] for v in launches.values()]
    worker_launches = [spans_by_id[sid] for sid in launches
                       if service and spans_by_id[sid][5] != main_thread]
    lookups = by_name.get("strategies.plan_lookup", [])
    hits = sum(1 for s in lookups if s[7])

    # Recorder time: outermost obs.recorder spans only.
    recorder_s = sum(
        s[4] - s[3] for s in by_name.get("obs.recorder", ())
        if _outermost(spans_by_id, s[0], ("obs.recorder",)) == s[0])

    # Queue wait per request: offer return -> take (or take_matching)
    # return on the dispatcher; dispatch: take mark -> assign return.
    offered = {s[6]: s[4] for s in by_name.get("service.offer", ())}
    taken: dict = {}
    for span in by_name.get("service.take", ()):
        taken[span[6]] = span[4]
    for span in by_name.get("service.take_matching", ()):
        for req in span[6] or ():
            taken[req] = span[4]
    queue_wait = [taken[r] - offered[r] for r in taken if r in offered]
    dispatch = []
    take_marks = sorted((s[4], s[5]) for s in by_name.get("service.take",
                                                          ()))
    assigns = sorted((s[4], s[5]) for s in by_name.get("service.assign",
                                                       ()))
    j = 0
    for end, thread in take_marks:
        while j < len(assigns) and (assigns[j][0] < end
                                    or assigns[j][1] != thread):
            j += 1
        if j < len(assigns):
            dispatch.append(assigns[j][0] - end)
            j += 1

    sizes = [s[7] or 1 for s in worker_launches]
    busy = sum(s[4] - s[3] for s in worker_launches)
    layer_intervals = merge_intervals(
        (s[3], s[4]) for s in spans if s[4] > s[3])
    step_total = sum(b - a for a, b in step_windows)
    attributed = covered(step_windows, layer_intervals)

    setup_by_name: dict[str, list[float]] = {}
    for span in setup_spans:
        setup_by_name.setdefault(span[2], []).append(span[4] - span[3])
    build_s = (sum(setup_by_name.get("strategies.build_plan", ()))
               + sum(setup_by_name.get("codegen.compile_plan", ())))

    return {
        "host.prepare_us": median(durations("host.prepare")) * us,
        "host.execute_self_us": median(exec_self) * us,
        "strategies.plan_lookup_us": median(
            durations("strategies.plan_lookup")) * us,
        "strategies.plan_hit_ratio": hits / len(lookups) if lookups
        else 0.0,
        "clsim.events_per_exec": len(by_name.get("clsim.record", ()))
        / executions,
        "clsim.accounting_us": sum(
            sum(durations(n)) for n in CLSIM_ACCOUNTING) * us / executions,
        "metrics.ops_per_exec": ops_in_exec / executions,
        "metrics.ops_per_req": ops_total / requests,
        "codegen.build_ms": build_s * 1e3,
        "codegen.builds": float(len(setup_by_name.get(
            "codegen.compile_plan", ()))),
        "expr.compile_ms": sum(setup_by_name.get("expr.compile", ()))
        * 1e3,
        "obs.recorder_us_per_req": recorder_s * us / requests,
        "obs.on_done_us": median(durations("obs.on_done")) * us,
        "service.submit_us": median(durations("service.submit")) * us,
        "service.queue_wait_us": median(queue_wait) * us,
        "service.dispatch_us": median(dispatch) * us,
        "service.exec_us_per_req": median(
            (s[4] - s[3]) / (s[7] or 1) for s in worker_launches) * us,
        "service.resolve_us": median(durations("service.resolve")) * us,
        "service.batch_size_mean": (sum(sizes) / len(sizes) if sizes
                                    else 0.0),
        "service.launches_per_req": len(worker_launches) / requests,
        "service.worker_busy_frac": busy / wall if wall > 0 else 0.0,
        "trace.unattributed_frac": (1.0 - attributed / step_total
                                    if step_total > 0 else 0.0),
    }
