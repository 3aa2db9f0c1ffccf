"""Span wrapping, metric-op counting and per-layer arithmetic."""

import threading

import pytest

from perfbench.layers import CountingRegistry, LayerTracer, layer_metrics


class Base:
    def inherited(self):
        return "base"


class Toy(Base):
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n

    def take(self, value):
        return value


def test_wrap_records_nesting_and_restores():
    tracer = LayerTracer()
    original_outer = Toy.__dict__["outer"]
    tracer.wrap(Toy, "outer", "toy.outer")
    tracer.wrap(Toy, "inner", "toy.inner", note=lambda a, r: r)
    tracer.wrap(Toy, "inherited", "toy.inherited")
    tracer.set_request(7)
    assert Toy().outer(2) == 4
    assert Toy().inherited() == "base"
    spans = tracer.take_spans()
    assert tracer.spans == []
    outer = next(s for s in spans if s[2] == "toy.outer")
    inners = [s for s in spans if s[2] == "toy.inner"]
    assert len(inners) == 2
    assert all(s[1] == outer[0] for s in inners)
    assert outer[1] == 0
    assert all(s[6] == 7 for s in spans)
    assert all(s[7] == 2 for s in inners)
    assert all(s[3] <= s[4] for s in spans)
    assert all(outer[3] <= s[3] and s[4] <= outer[4] for s in inners)
    tracer.uninstall()
    assert Toy.__dict__["outer"] is original_outer
    assert "inherited" not in Toy.__dict__
    assert not tracer.installed


def test_mark_spans_skip_none_and_have_no_length():
    tracer = LayerTracer()
    tracer.wrap(Toy, "take", "toy.take", mark=True,
                request=lambda a, r: r)
    try:
        Toy().take(None)
        Toy().take(5)
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span[3] == span[4] and span[6] == 5


def test_spans_keep_their_thread():
    tracer = LayerTracer()
    tracer.wrap(Toy, "inner", "toy.inner")
    try:
        worker = threading.Thread(target=Toy().inner, args=(1,))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
        Toy().inner(1)
    finally:
        tracer.uninstall()
    threads = {s[5] for s in tracer.spans}
    assert threading.get_ident() in threads and len(threads) == 2


def test_counting_registry_forwards_and_counts():
    from perfbench.workloads import load_repro
    rp = load_repro()
    tracer = LayerTracer()
    counts = tracer.counts
    registry = CountingRegistry(rp.MetricsRegistry(), counts)
    counter = registry.counter("bench_things_total", "things")
    child = registry.counter("bench_kinds_total", "kinds",
                             ("kind",)).labels(kind="a")
    histogram = registry.histogram("bench_seconds", "seconds")
    counter.inc()
    child.inc(2)
    histogram.observe(0.5)
    assert counts.snapshot() == (3, 0)
    assert counter.value == 1.0
    assert child.value == 2.0
    assert histogram.count == 1


def _span(sid, parent, name, start, end, thread=1, req=None, note=None):
    return (sid, parent, name, start, end, thread, req, note)


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        _span(1, 0, "host.execute", 0.0, 10e-6),
        _span(2, 1, "host.prepare", 0.0, 2e-6),
        _span(3, 1, "host.execute_prepared", 2e-6, 10e-6, note=1),
        _span(4, 3, "strategies.plan_lookup", 3e-6, 4e-6, note=True),
        _span(5, 3, "codegen.launch", 4e-6, 9e-6),
        _span(6, 5, "clsim.record", 8e-6, 8.5e-6),
    ]
    setup = [_span(10, 0, "expr.compile", 0.0, 0.002),
             _span(11, 0, "codegen.compile_plan", 0.0, 0.001),
             _span(12, 0, "strategies.build_plan", 0.0, 0.001)]
    values = layer_metrics(spans, setup_spans=setup, executions=1,
                           requests=1, wall=20e-6,
                           step_windows=[(0.0, 12e-6)], ops_total=9,
                           ops_in_exec=5)
    assert values["host.prepare_us"] == pytest.approx(2.0)
    # execute_prepared (8 us) minus lookup (1 us) and launch (5 us).
    assert values["host.execute_self_us"] == pytest.approx(2.0)
    assert values["strategies.plan_hit_ratio"] == 1.0
    assert values["clsim.events_per_exec"] == 1.0
    assert values["clsim.accounting_us"] == pytest.approx(0.5)
    assert values["metrics.ops_per_exec"] == 5.0
    assert values["metrics.ops_per_req"] == 9.0
    assert values["codegen.builds"] == 1.0
    assert values["codegen.build_ms"] == pytest.approx(2.0)
    assert values["expr.compile_ms"] == pytest.approx(2.0)
    # 10 of the 12 us step are inside host.execute.
    assert values["trace.unattributed_frac"] == pytest.approx(1 / 6)
    assert values["service.batch_size_mean"] == 0.0
