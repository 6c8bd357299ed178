"""Tests for repro.observability: tracer, metrics registry, exporters."""

import json

import pytest

from repro.observability import (
    NULL_TRACER,
    Observability,
    ObservabilityConfig,
    Tracer,
    chrome_trace,
    metrics_json,
)
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.trace import PH_BEGIN, PH_COMPLETE, PH_END


class TestTracer:
    def test_span_nesting(self):
        tr = Tracer()
        tr.begin("outer", tid=1, ts=0.0)
        tr.begin("inner", tid=1, ts=0.5)
        tr.end("inner", tid=1, ts=0.7)
        tr.end("outer", tid=1, ts=1.0)
        evs = tr.events()
        assert [e.ph for e in evs] == [PH_BEGIN, PH_BEGIN, PH_END, PH_END]
        assert [e.name for e in evs] == ["outer", "inner", "inner", "outer"]
        # B/E pairs balance per name: chrome-trace nesting is valid
        depth = 0
        for e in evs:
            depth += 1 if e.ph == PH_BEGIN else -1
            assert depth >= 0
        assert depth == 0

    def test_span_context_manager(self):
        tr = Tracer()
        clock = iter([1.0, 2.0])
        with tr.span("work", tid=3, clock=lambda: next(clock)):
            pass
        evs = tr.events()
        assert len(evs) == 2
        assert evs[0].ts == 1.0 and evs[1].ts == 2.0
        assert evs[0].tid == 3

    def test_instant_and_complete(self):
        tr = Tracer()
        tr.instant("mark", tid=2, ts=0.25, detail=7)
        tr.complete("op", ts=0.5, dur=0.1, tid=2)
        evs = tr.events()
        assert evs[0].args == {"detail": 7}
        assert evs[1].ph == PH_COMPLETE and evs[1].dur == 0.1

    def test_ring_buffer_wraps(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.instant(f"e{i}", ts=float(i))
        evs = tr.events()
        assert len(evs) == 4
        assert [e.name for e in evs] == ["e6", "e7", "e8", "e9"]
        assert tr.n_dropped == 6

    def test_disabled_tracer_is_noop(self):
        tr = Tracer(enabled=False)
        tr.begin("x")
        tr.end("x")
        tr.instant("y")
        tr.complete("z", ts=0.0, dur=1.0)
        with tr.span("w"):
            pass
        assert len(tr.events()) == 0

    def test_null_tracer_singleton_noop(self):
        NULL_TRACER.begin("x")
        NULL_TRACER.instant("y")
        assert not NULL_TRACER.enabled
        assert len(NULL_TRACER.events()) == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestChromeTraceExport:
    def test_export_validates(self, tmp_path):
        tr = Tracer()
        tr.begin("phase", tid=0, ts=0.0)
        tr.complete("op", ts=0.001, dur=0.002, tid=1, rule="R4")
        tr.end("phase", tid=0, ts=0.01)
        doc = chrome_trace(tr)
        # must survive a JSON round-trip and keep the required keys
        doc2 = json.loads(json.dumps(doc))
        assert isinstance(doc2["traceEvents"], list)
        for ev in doc2["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] in "BEXi":
                assert isinstance(ev["ts"], (int, float))
            if ev["ph"] == "X":
                assert "dur" in ev
        # seconds -> microseconds
        xs = [e for e in doc2["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["ts"] == pytest.approx(1000.0)
        assert xs[0]["dur"] == pytest.approx(2000.0)
        assert xs[0]["args"]["rule"] == "R4"

    def test_write_trace_file(self, tmp_path):
        obs = Observability.from_config(ObservabilityConfig(tracing=True))
        obs.tracer.instant("e", ts=0.0)
        path = str(tmp_path / "trace.json")
        obs.write_trace(path)
        assert json.load(open(path))["traceEvents"]


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("ops")
        c2 = reg.counter("ops")
        assert c1 is c2
        c1.inc()
        c2.inc(4)
        assert reg.snapshot()["counters"]["ops"] == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("clock")
        g.set(2.5)
        g.inc(0.5)
        assert reg.snapshot()["gauges"]["clock"] == pytest.approx(3.0)

    def test_histogram_bucket_edges(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v, want_idx in [
            (0.5, 0),    # below first edge
            (1.0, 0),    # exactly on an edge lands in that bucket
            (1.5, 1),
            (2.0, 1),
            (3.999, 2),
            (4.0, 2),
            (4.001, 3),  # overflow bucket
            (100.0, 3),
        ]:
            before = h.counts[want_idx]
            h.observe(v)
            assert h.counts[want_idx] == before + 1, (v, want_idx)
        assert h.count == 8
        assert h.sum == pytest.approx(0.5 + 1 + 1.5 + 2 + 3.999 + 4 + 4.001 + 100)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0, 1.0])

    def test_histogram_quantile(self):
        h = Histogram("h", buckets=[1, 2, 4, 8])
        for v in [0.5, 0.6, 1.5, 3.0, 9.0]:
            h.observe(v)
        assert h.quantile(0.0) <= 1
        assert h.quantile(0.5) == 2
        assert h.quantile(1.0) == float("inf")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_log_linear_buckets_resolve_ten_percent(self):
        from repro.observability.metrics import REQUEST_LATENCY_BUCKETS
        edges = REQUEST_LATENCY_BUCKETS
        assert edges[0] == 1e-4 and edges[-1] == 100.0
        assert list(edges) == sorted(set(edges))
        widths = [(hi - lo) / lo for lo, hi in zip(edges, edges[1:])]
        assert max(widths) <= 0.10 + 1e-9

    def test_slo_percentiles_tell_20ms_from_30ms(self):
        """A hit population around 20 ms with a 30 ms tail: the decade
        edges read both as 0.05; these must be within 10 %."""
        from repro.service.slo import SLOTracker
        slo = SLOTracker(MetricsRegistry())
        for i in range(900):
            slo.observe("memory_hit", 0.020 + 1e-5 * (i % 41 - 20))
        for i in range(100):
            slo.observe("memory_hit", 0.030 + 1e-5 * (i % 41 - 20))
        tier = slo.snapshot()["tiers"]["memory_hit"]
        assert tier["p50_seconds"] == pytest.approx(0.020, rel=0.10)
        assert tier["p95_seconds"] == pytest.approx(0.030, rel=0.10)
        assert tier["p99_seconds"] == pytest.approx(0.030, rel=0.10)

    def test_snapshot_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.5)
        reg.histogram("c", buckets=[1, 10]).observe(3)
        json.dumps(reg.snapshot())
        json.dumps(metrics_json(reg, extra={"run": 1}))


class TestObservabilityBundle:
    def test_disabled_by_default(self):
        obs = Observability()
        assert not obs.tracer.enabled
        assert obs.tracer is NULL_TRACER

    def test_tracing_config_enables(self):
        obs = Observability.from_config(ObservabilityConfig(tracing=True))
        assert obs.tracer.enabled

    def test_write_metrics(self, tmp_path):
        obs = Observability()
        obs.registry.counter("x").inc()
        path = str(tmp_path / "m.json")
        obs.write_metrics(path, extra={"note": "hi"})
        doc = json.load(open(path))
        assert doc["counters"]["x"] == 1
        assert doc["run"]["note"] == "hi"


class TestInstrumentedRuns:
    """The production paths actually emit spans and metrics."""

    def test_sequential_refiner_feeds_registry(self):
        from repro.api import MeshRequest, mesh
        from repro.imaging import sphere_phantom

        req = MeshRequest(image=sphere_phantom(14), delta=3.0,
                          mesher="sequential",
                          observability=ObservabilityConfig(tracing=True))
        result = mesh(req)
        counters = result.metrics["counters"]
        assert counters["refine.operations"] > 0
        assert any(k.startswith("refine.rule.") for k in counters)
        hists = result.metrics["histograms"]
        assert hists["refine.cavity_size"]["count"] > 0
        evs = result.observability.tracer.events()
        assert any(e.name == "refine" for e in evs)
        assert any(e.ph == PH_COMPLETE for e in evs)

    def test_simulated_run_has_virtual_timeline(self):
        from repro.imaging import sphere_phantom
        from repro.simnuma import _simulate_parallel_refinement

        obs = Observability.from_config(ObservabilityConfig(tracing=True))
        sim = _simulate_parallel_refinement(sphere_phantom(14), 4,
                                            delta=3.0, obs=obs)
        counters = obs.snapshot()["counters"]
        assert counters["runtime.rollbacks"] >= 0
        assert "runtime.overhead.contention_seconds" in counters
        evs = obs.tracer.events()
        # virtual timestamps: all within the simulated clock range
        vmax = sim.virtual_time
        op_events = [e for e in evs if e.ph == PH_COMPLETE]
        assert op_events
        assert all(0.0 <= e.ts <= vmax + 1e-9 for e in op_events)
        tids = {e.tid for e in op_events}
        assert len(tids) > 1  # more than one simulated thread did work

    def test_threadstats_feeds_overhead_counters(self):
        from repro.runtime.stats import OverheadKind, ThreadStats

        obs = Observability.from_config(ObservabilityConfig(tracing=True))
        st = ThreadStats(thread_id=5, obs=obs)
        st.add_overhead(OverheadKind.CONTENTION, 0.25, now=1.0)
        st.add_overhead(OverheadKind.ROLLBACK, 0.1, now=2.0)
        snap = obs.registry.snapshot()
        assert snap["counters"][
            "runtime.overhead.contention_seconds"] == pytest.approx(0.25)
        assert snap["counters"][
            "runtime.overhead.rollback_seconds"] == pytest.approx(0.1)
        assert snap["histograms"]["runtime.lock_wait_seconds"]["count"] == 1
        names = [e.name for e in obs.tracer.events()]
        assert "overhead.contention" in names
        assert "overhead.rollback" in names
