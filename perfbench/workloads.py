"""The four workloads and the loops that drive them.

Every workload runs in one process with one load-generating thread (the
main thread), a single ``cpu`` device, the fusion strategy and the
default compiled backend.  Inputs come from ``make_fields`` with seeds
derived from the ``--seed`` argument and cycle over ``TIME_STEPS`` time
steps.  A *step* is one time step's three fields.

* ``insitu-small`` / ``insitu-large`` — a closed-loop in-situ host calls
  ``DerivedFieldEngine.execute`` for the three fields, one after another.
  There an operation ("request") is one ``execute`` call.
* ``service-steady`` — one closed-loop client submits the three fields to
  ``DerivedFieldService`` and waits for all three futures.
* ``service-burst`` — an open-loop submitter sends ``BURST_BLOCKS`` blocks
  × three fields every ``BURST_PERIOD_S``; latency counts from the due
  time, completion is stamped by ``add_done_callback``.

Nothing here imports :mod:`repro` or NumPy at module level: ``setup_s``
starts before the first such import.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FIELDS = ("velocity_magnitude", "vorticity_magnitude", "q_criterion")
TIME_STEPS = 3
BURST_BLOCKS = 8
BURST_PERIOD_S = 0.050
WAIT_S = 30.0               # longest wait for one future before it counts
#                             as unresolved


def load_repro() -> SimpleNamespace:
    """Import the program from ``src/`` (the start of ``setup_s``)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401
    from repro.analysis import vortex
    from repro.clsim.environment import CLEnvironment
    from repro.clsim.events import EventLog
    from repro.codegen import CompiledPlan
    from repro.host import engine as engine_module
    from repro.host.engine import DerivedFieldEngine
    from repro.metrics import get_registry, set_registry
    from repro.metrics.registry import MetricsRegistry
    from repro.obs import FlightRecorder, Observability
    from repro.service import (AdmissionQueue, DerivedFieldService,
                               DeviceWorker, LeastLoadedScheduler,
                               ServiceMetrics, ServiceRequest)
    from repro.strategies import FusionStrategy, PlanCache
    from repro.trace.tracer import Span
    from repro.workloads import SubGrid, make_fields
    namespace = SimpleNamespace(**locals())
    namespace.EXPRESSIONS = vortex.EXPRESSIONS
    return namespace


class Bucket:
    """What one kind of block (untraced or traced) measured."""

    def __init__(self):
        self.steps: list[float] = []          # step wall seconds
        self.windows: list[tuple] = []        # (start, end) per step
        self.requests: list[float] = []       # per-operation latency
        self.sweeps: list[float] = []         # report.timing.wall
        self.lags: list[float] = []           # open-loop lateness
        self.executions = 0                   # field executions
        self.wall = 0.0                       # seconds the load ran

    @property
    def operations(self) -> int:
        return len(self.requests)


class Workload:
    """Shared state and the measurement driver."""

    name = ""
    grid = (16, 16, 32)
    warmup_steps = 10
    open_loop = False
    service = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rp: Optional[SimpleNamespace] = None
        self.refs: dict = {}
        self.peak_device = 0
        self.modeled_s = 0.0
        self.steps_done = 0
        self._op = 0
        self._modeled = 0.0
        self.tag = _no_tag

    @property
    def cells(self) -> int:
        ni, nj, nk = self.grid
        return ni * nj * nk

    # -- set-up ------------------------------------------------------------

    def make_inputs(self, rp) -> None:
        """Seeded inputs: ``self.inputs[t][block][field]`` dicts."""
        self.rp = rp
        grid = rp.SubGrid(*self.grid)
        blocks = BURST_BLOCKS if self.open_loop else 1
        self.inputs = []
        for t in range(TIME_STEPS):
            step = []
            for b in range(blocks):
                seed = self.seed * 1000 + t * 16 + b
                fields = rp.make_fields(grid, seed=seed)
                step.append({
                    name: {k: fields[k]
                           for k in rp.vortex.EXPRESSION_INPUTS[name]}
                    for name in FIELDS})
            self.inputs.append(step)

    def start(self) -> None:
        """Build the engine or service and run each field once (cold
        compile and codegen); the end of ``setup_s``."""
        raise NotImplementedError

    def warm_up(self, checker) -> None:
        for k in range(self.warmup_steps):
            self._closed_step(k, checker, Bucket())

    def build_references(self) -> None:
        """Pinned interpreter outputs for every input (untimed)."""
        from .checks import build_reference
        rp = self.rp
        pinned = rp.DerivedFieldEngine("cpu", "fusion",
                                       backend="vectorized")
        self.refs = {
            (t, b, name): build_reference(rp, pinned, name, inputs)
            for t, step in enumerate(self.inputs)
            for b, block in enumerate(step)
            for name, inputs in block.items()}

    def close(self) -> None:
        pass

    # -- measurement ---------------------------------------------------------

    def measure(self, schedule, checker, switch) -> dict:
        """Run ``schedule`` — ``(traced, seconds)`` blocks — calling
        ``switch(traced)`` at each block start; returns the two buckets
        keyed by ``traced``."""
        buckets = {False: Bucket(), True: Bucket()}
        modeled_start = self._modeled
        for traced, seconds in schedule:
            switch(traced)
            if self.open_loop:
                self._open_block(seconds, checker, buckets[traced])
            else:
                bucket = buckets[traced]
                end = time.perf_counter() + seconds
                while time.perf_counter() < end:
                    if not self._closed_step(self.steps_done, checker,
                                             bucket):
                        break
                    self.steps_done += 1
        switch(False)
        self.modeled_s = self._modeled - modeled_start
        return buckets

    def _record_report(self, bucket: Bucket, report) -> None:
        bucket.sweeps.append(report.timing.wall)
        self._modeled += report.timing.total
        if report.mem_high_water > self.peak_device:
            self.peak_device = report.mem_high_water

    def _closed_step(self, k, checker, bucket) -> bool:
        raise NotImplementedError

    def _open_block(self, seconds, checker, bucket) -> None:
        raise NotImplementedError


def _no_tag(op: int) -> None:
    return None


class InSitu(Workload):
    """Closed-loop ``DerivedFieldEngine.execute`` of the three fields."""

    def start(self) -> None:
        rp = self.rp
        self.engine = rp.DerivedFieldEngine("cpu", "fusion")
        self.compiled = {name: self.engine.compile(rp.EXPRESSIONS[name])
                         for name in FIELDS}
        for name in FIELDS:
            self.engine.execute(self.compiled[name],
                                self.inputs[0][0][name])

    def _closed_step(self, k, checker, bucket) -> bool:
        t = k % TIME_STEPS
        inputs = self.inputs[t][0]
        engine = self.engine
        compiled = self.compiled
        tag = self.tag
        clock = time.perf_counter
        reports = []
        latencies = []
        start = clock()
        for name in FIELDS:
            tag(self._op)
            self._op += 1
            begin = clock()
            report = engine.execute(compiled[name], inputs[name])
            end = clock()
            latencies.append(end - begin)
            reports.append(report)
        # Outside the timed region: bookkeeping and output checks.
        bucket.steps.append(end - start)
        bucket.windows.append((start, end))
        bucket.requests.extend(latencies)
        bucket.executions += len(FIELDS)
        bucket.wall += end - start
        for name, report in zip(FIELDS, reports):
            self._record_report(bucket, report)
            checker.check(f"{self.name} step {k} {name}", report,
                          self.refs[(t, 0, name)])
        return True


class _Latch:
    """Counts completions down and stamps each one (done callbacks)."""

    def __init__(self, count: int):
        self.stamps: list[Optional[float]] = [None] * count
        self._left = count
        self._lock = threading.Lock()
        self.event = threading.Event()

    def callback(self, slot: int):
        def done(_request, slot=slot):
            self.stamps[slot] = time.perf_counter()
            with self._lock:
                self._left -= 1
                if self._left == 0:
                    self.event.set()
        return done


class _ServiceWorkload(Workload):
    service = True
    service_kwargs: dict = {}

    def start(self) -> None:
        rp = self.rp
        self.svc = rp.DerivedFieldService(("cpu",), "fusion",
                                          **self.service_kwargs)
        for name in FIELDS:
            self.svc.submit(rp.EXPRESSIONS[name],
                            self.inputs[0][0][name]).result(WAIT_S)

    def close(self) -> None:
        svc = getattr(self, "svc", None)
        if svc is not None:
            svc.close()

    def _submit(self, label, name, inputs, latch, slot, checker):
        """Submit one request; ``None`` (counted) when refused."""
        try:
            request = self.svc.submit(self.rp.EXPRESSIONS[name], inputs)
        except Exception as exc:   # overload, closed: a refused request
            checker.refused(label, f"refused: {type(exc).__name__}: {exc}")
            latch.callback(slot)(None)
            return None
        request.add_done_callback(latch.callback(slot))
        return request

    def _settle(self, bucket, checker, entries, latch, origin) -> None:
        """Check a finished step's requests; latencies from ``origin``
        (one per entry: submit time, or the burst's due time)."""
        for (label, request, ref), t0, stamp in zip(entries, origin,
                                                     latch.stamps):
            if request is None:
                continue
            if stamp is None or not request.done():
                checker.refused(label, "unresolved at the end of the run")
                continue
            try:
                report = request.result(0)
            except Exception as exc:
                checker.refused(label, f"{type(exc).__name__}: {exc}")
                continue
            bucket.requests.append(stamp - t0)
            bucket.executions += 1
            self._record_report(bucket, report)
            checker.check(label, report, ref)


class ServiceSteady(_ServiceWorkload):
    """One closed-loop client: submit three fields, wait for all three."""

    name = "service-steady"

    def _closed_step(self, k, checker, bucket) -> bool:
        t = k % TIME_STEPS
        inputs = self.inputs[t][0]
        latch = _Latch(len(FIELDS))
        clock = time.perf_counter
        entries = []
        submitted = []
        start = clock()
        for slot, name in enumerate(FIELDS):
            submitted.append(clock())
            label = f"{self.name} step {k} {name}"
            request = self._submit(label, name, inputs[name], latch, slot,
                                   checker)
            entries.append((label, request, self.refs[(t, 0, name)]))
        finished = latch.event.wait(WAIT_S)
        stamps = [s for s in latch.stamps if s is not None]
        end = max(stamps) if stamps else clock()
        bucket.steps.append(end - start)
        bucket.windows.append((start, end))
        bucket.wall += end - start
        self._settle(bucket, checker, entries, latch, submitted)
        return finished


class ServiceBurst(_ServiceWorkload):
    """Open loop: a burst of blocks × fields every ``BURST_PERIOD_S``."""

    name = "service-burst"
    open_loop = True
    warmup_steps = 4

    def warm_up(self, checker) -> None:
        self._open_block(self.warmup_steps * BURST_PERIOD_S, checker,
                         Bucket())

    def _burst(self, k, due, checker):
        t = k % TIME_STEPS
        latch = _Latch(BURST_BLOCKS * len(FIELDS))
        entries = []
        slot = 0
        for b, block in enumerate(self.inputs[t]):
            for name in FIELDS:
                label = f"{self.name} burst {k} block {b} {name}"
                request = self._submit(label, name, block[name], latch,
                                       slot, checker)
                entries.append((label, request, self.refs[(t, b, name)]))
                slot += 1
        return due, entries, latch

    def _open_block(self, seconds, checker, bucket) -> None:
        clock = time.perf_counter
        pending: deque = deque()
        origin = clock() + 0.005
        stop = origin + seconds
        k = 0

        def settle(burst):
            due, entries, latch = burst
            stamps = [s for s in latch.stamps if s is not None]
            end = max(stamps) if stamps else clock()
            bucket.steps.append(end - due)
            bucket.windows.append((due, end))
            self._settle(bucket, checker, entries, latch,
                         [due] * len(entries))

        while True:
            due = origin + k * BURST_PERIOD_S
            if due >= stop:
                break
            # Between bursts: check every burst that has fully finished.
            while pending and pending[0][2].event.is_set():
                settle(pending.popleft())
            now = clock()
            if due > now:
                time.sleep(due - now)
            bucket.lags.append(clock() - due)
            pending.append(self._burst(self.steps_done, due, checker))
            self.steps_done += 1
            k += 1
        for burst in pending:
            burst[2].event.wait(WAIT_S)
            settle(burst)
        bucket.wall += clock() - origin


class InSituSmall(InSitu):
    name = "insitu-small"
    grid = (16, 16, 32)
    warmup_steps = 20


class InSituLarge(InSitu):
    name = "insitu-large"
    grid = (64, 64, 64)
    warmup_steps = 3


WORKLOADS = {cls.name: cls for cls in (InSituSmall, InSituLarge,
                                       ServiceSteady, ServiceBurst)}
