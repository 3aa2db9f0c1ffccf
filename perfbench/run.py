#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload insitu-large --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced blocks and reports the
per-layer metrics (see ``perfbench/README.md``).  Every operation's output
is checked outside the timed regions.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit status is 1 when any check failed.  Run from
the repository root; it exits with status 2, printing no result, when
the program's source (``src/repro``) is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE.parent) not in sys.path:
    sys.path.insert(0, str(HERE.parent))

from perfbench import stats  # noqa: E402
from perfbench.layers import CountingRegistry, LayerTracer, \
    layer_metrics  # noqa: E402
from perfbench.workloads import SRC, WORKLOADS, load_repro  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 4           # fresh processes timed for setup_s (+ this one)
TRACE_BLOCK_S = 1.0        # length of one untraced or traced block
WATCHDOG_S = 170.0
MIB = float(1 << 20)

END_TO_END = (
    ("setup_s", "s"), ("step_p50_ms", "ms"), ("step_tail_ms", "ms"),
    ("mcells_per_s", "Mcells/s"), ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"), ("success_frac", "fraction"),
    ("modeled_step_ms", "modeled_ms"), ("peak_device_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
)
PER_LAYER = (
    ("host.prepare_us", "us"), ("host.execute_self_us", "us"),
    ("strategies.plan_lookup_us", "us"),
    ("strategies.plan_hit_ratio", "ratio"),
    ("clsim.events_per_exec", "count"), ("clsim.accounting_us", "us"),
    ("metrics.ops_per_exec", "count"), ("metrics.ops_per_req", "count"),
    ("codegen.sweep_us", "us"), ("codegen.sweep_ns_per_cell", "ns"),
    ("codegen.sweep_share", "fraction"), ("codegen.build_ms", "ms"),
    ("codegen.builds", "count"), ("expr.compile_ms", "ms"),
    ("obs.spans_per_req", "count"), ("obs.recorder_us_per_req", "us"),
    ("obs.on_done_us", "us"), ("service.submit_us", "us"),
    ("service.queue_wait_us", "us"), ("service.dispatch_us", "us"),
    ("service.exec_us_per_req", "us"), ("service.resolve_us", "us"),
    ("service.batch_size_mean", "count"),
    ("service.launches_per_req", "ratio"),
    ("service.worker_busy_frac", "fraction"),
    ("loadgen.lag_p50_ms", "ms"), ("loadgen.lag_max_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unattributed_frac", "fraction"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, print it, and exit "
                             "(used for the setup_s samples)")
    return parser.parse_args(argv)


def start_watchdog() -> None:
    """Exit (status 3, no result) if a run hangs."""
    def expire():
        print(f"perfbench: run exceeded {WATCHDOG_S:.0f} s; aborting",
              file=sys.stderr, flush=True)
        os._exit(3)
    timer = threading.Timer(WATCHDOG_S, expire)
    timer.daemon = True
    timer.start()


def set_up(workload, tracer=None):
    """Import the program and make ``workload`` warm; returns the seconds
    taken, input generation excluded."""
    start = time.perf_counter()
    rp = load_repro()
    if tracer is not None:
        counts = tracer.counts
        rp.set_registry(CountingRegistry(rp.get_registry(), counts))
        workload.service_kwargs = {"metrics_registry": CountingRegistry(
            rp.MetricsRegistry(), counts)}
        tracer.install(rp)
    inputs_start = time.perf_counter()
    workload.make_inputs(rp)
    inputs_s = time.perf_counter() - inputs_start
    workload.start()
    return time.perf_counter() - start - inputs_s


def probe_setup(args) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=str(HERE.parent))
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def hardware() -> dict:
    """Cache sizes and processor count, where the host exposes them."""
    info = {"nproc": os.cpu_count(), "l2_bytes": None, "llc_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        sizes = {}
        for index in sorted(base.glob("index*")):
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            size = int(text[:-1]) * scale[text[-1]] if text[-1] in scale \
                else int(text)
            if kind != "Instruction":
                sizes[level] = size
        info["l2_bytes"] = sizes.get(2)
        info["llc_bytes"] = sizes[max(sizes)] if sizes else None
    except (OSError, ValueError, KeyError):
        pass
    return info


def schedule_for(args) -> list:
    if not args.trace:
        return [(False, args.seconds)]
    blocks = max(2, 2 * round(args.seconds / (2 * TRACE_BLOCK_S)))
    return [(bool(i % 2), args.seconds / blocks) for i in range(blocks)]


def end_to_end(workload, bucket, checker, setup_samples) -> tuple:
    steps = stats.summarize(bucket.steps)
    reqs = stats.summarize(bucket.requests)
    n_steps = max(len(bucket.steps), 1)
    values = {
        "setup_s": stats.median(setup_samples),
        "step_p50_ms": steps["p50"] * 1e3,
        "step_tail_ms": steps["tail"] * 1e3,
        "mcells_per_s": (workload.cells * bucket.executions
                         / bucket.wall / 1e6),
        "req_p50_ms": reqs["p50"] * 1e3,
        "req_tail_ms": reqs["tail"] * 1e3,
        "success_frac": ((checker.attempted - checker.failed)
                         / max(checker.attempted, 1)),
        "modeled_step_ms": workload.modeled_s / n_steps * 1e3,
        "peak_device_mib": workload.peak_device / MIB,
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0),
    }
    samples = {"setup_s": {"n": len(setup_samples),
                           "values": setup_samples},
               "step": steps, "request": reqs,
               "lateness_ms": {"n": len(bucket.lags),
                               "p50": stats.median(bucket.lags) * 1e3,
                               "max": max(bucket.lags, default=0.0) * 1e3}}
    return values, samples


def per_layer(workload, buckets, setup_spans, spans, ops) -> tuple:
    plain, traced = buckets[False], buckets[True]
    values = layer_metrics(
        spans, setup_spans=setup_spans, executions=traced.executions,
        requests=traced.operations, wall=traced.wall,
        step_windows=traced.windows, ops_total=ops["total"],
        ops_in_exec=ops["in_exec"],
        main_thread=threading.get_ident(), service=workload.service)
    sweep = stats.median(plain.sweeps)
    values["codegen.sweep_us"] = sweep * 1e6
    values["codegen.sweep_ns_per_cell"] = sweep * 1e9 / workload.cells
    values["codegen.sweep_share"] = (sum(plain.sweeps)
                                     / max(sum(plain.steps), 1e-12))
    values["obs.spans_per_req"] = 0.0
    if workload.service:
        records = workload.svc.obs.recorder.records()
        if records:
            values["obs.spans_per_req"] = (
                sum(len(r.spans) + r.dropped_spans for r in records)
                / len(records))
    lags = plain.lags + traced.lags
    values["loadgen.lag_p50_ms"] = stats.median(lags) * 1e3
    values["loadgen.lag_max_ms"] = max(lags, default=0.0) * 1e3
    p50_plain = stats.median(plain.steps)
    p50_traced = stats.median(traced.steps)
    values["trace.overhead_frac"] = (p50_traced / p50_plain - 1.0
                                     if p50_plain > 0 else 0.0)
    samples = {"untraced_steps": len(plain.steps),
               "traced_steps": len(traced.steps),
               "traced_executions": traced.executions,
               "traced_requests": traced.operations,
               "spans": len(spans), "setup_spans": len(setup_spans),
               "lags": len(lags)}
    return values, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}/repro; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    start_watchdog()
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        seconds = set_up(workload)
        workload.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    setup_samples = ([] if args.trace
                     else [probe_setup(args) for _ in range(SETUP_PROBES)])
    tracer = LayerTracer() if args.trace else None
    setup_samples.append(set_up(workload, tracer))
    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.take_spans()
        tracer.uninstall()

    from perfbench.checks import Checker
    checker = Checker()
    try:
        workload.build_references()
    except AssertionError as exc:
        workload.close()
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    workload.warm_up(checker)

    rp = workload.rp
    ops = {"base": (0, 0), "total": 0, "in_exec": 0}
    if tracer is not None:
        workload.tag = tracer.set_request

    def switch(traced: bool) -> None:
        """Install the wrappers for a traced block, remove them after,
        and count the metric updates made in between."""
        if tracer is None:
            return
        if traced and not tracer.installed:
            ops["base"] = tracer.counts.snapshot()
            tracer.install(rp)
        elif not traced and tracer.installed:
            tracer.uninstall()
            total, in_exec = tracer.counts.snapshot()
            ops["total"] += total - ops["base"][0]
            ops["in_exec"] += in_exec - ops["base"][1]

    buckets = workload.measure(schedule_for(args), checker, switch)
    spans = tracer.take_spans() if tracer is not None else []
    if args.trace:
        values, samples = per_layer(workload, buckets, setup_spans, spans,
                                    ops)
        units = PER_LAYER
        tracer.write_json(OUT / f"trace-{args.workload}.json",
                          setup_spans + spans)
    else:
        values, samples = end_to_end(workload, buckets[False], checker,
                                     setup_samples)
        units = END_TO_END
    batching = (workload.svc.snapshot()["batching"] if workload.service
                else None)
    workload.close()

    correct = checker.failed == 0 and checker.attempted > 0
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "grid": list(workload.grid), "cells": workload.cells,
        "bytes_per_array": workload.cells * 8,
        **hardware(), "samples": samples, "batching": batching,
        "attempted": checker.attempted, "failed": checker.failed,
        "failed_frac": checker.failed / max(checker.attempted, 1),
        "failures": checker.failures,
    }
    for name, unit in units:
        print(f"{args.workload:15s} {name:28s} {values[name]:>14.6g} {unit}")
    print("provenance " + json.dumps(provenance, default=str))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"values": values, "provenance": provenance},
                   indent=1, default=str))
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
