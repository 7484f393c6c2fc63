"""Unit tests for the telemetry substrate (tracer, metrics, exporters)."""

import json
import math
import threading

import numpy as np
import pytest

from repro.telemetry import (
    NULL_TRACER,
    MetricsRegistry,
    RunReport,
    Span,
    Tracer,
    chrome_trace,
    get_metrics,
    get_tracer,
    render_phase_totals,
    render_spans,
    render_timeline,
    spans_from_chrome,
    spans_from_timeline,
    percentiles_from_buckets,
    use_metrics,
    use_thread_metrics,
    use_tracer,
    validate_run_report,
    write_chrome_trace,
)
from repro.telemetry.chrome import REAL_PID, SIM_PID


class FakeClock:
    """Deterministic clock: each reading advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestTracer:
    def test_spans_nest_through_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        # children close before their parents
        assert by_name["inner"].end <= by_name["outer"].end

    def test_attrs_at_open_and_via_set(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("op", category="io", member=3) as span:
            span.set(bytes=4096)
        (recorded,) = tracer.spans
        assert recorded.attrs == {"member": 3, "bytes": 4096}
        assert recorded.category == "io"

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(KeyError):
            with tracer.span("boom"):
                raise KeyError("x")
        (span,) = tracer.spans
        assert span.attrs["error"] == "KeyError"
        assert span.end > span.start  # still closed

    def test_record_parents_under_open_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            t0 = tracer.now()
            t1 = tracer.now()
            tracer.record("attempt", t0, t1, category="fault", attempt=1)
        attempt = next(s for s in tracer.spans if s.name == "attempt")
        outer = next(s for s in tracer.spans if s.name == "outer")
        assert attempt.parent_id == outer.span_id
        assert attempt.attrs == {"attempt": 1}

    def test_events_capture_instant_markers(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("fault.injected", category="fault", member=2)
        (evt,) = tracer.events
        assert evt.name == "fault.injected"
        assert evt.attrs == {"member": 2}

    def test_threads_get_their_own_track_and_stack(self):
        tracer = Tracer()
        def work():
            with tracer.span("worker-op"):
                pass
        thread = threading.Thread(target=work, name="worker-1")
        with tracer.span("main-op"):
            thread.start()
            thread.join()
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["main-op"].track == "main"
        assert by_name["worker-op"].track == "worker-1"
        # the worker span must not be parented under the main thread's span
        assert by_name["worker-op"].parent_id is None

    def test_concurrent_span_recording_is_lossless(self):
        tracer = Tracer()
        n_threads, n_spans = 8, 50
        def work(i):
            for k in range(n_spans):
                with tracer.span(f"t{i}.{k}"):
                    pass
        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans) == n_threads * n_spans
        assert len({s.span_id for s in tracer.spans}) == n_threads * n_spans

    def test_phase_totals_union_per_category(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record("a", 0.0, 2.0, category="io")
        tracer.record("b", 1.0, 3.0, category="io")  # overlaps a
        tracer.record("c", 0.0, 1.0, category="filter")
        totals = tracer.phase_totals()
        assert totals == pytest.approx({"io": 3.0, "filter": 1.0})


class TestNullTracer:
    def test_global_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_span_is_a_shared_singleton(self):
        a = NULL_TRACER.span("x", member=1)
        b = NULL_TRACER.span("y")
        assert a is b  # no allocations on the unguarded path

    def test_null_operations_are_noops(self):
        with NULL_TRACER.span("x") as span:
            span.set(bytes=1)
        assert NULL_TRACER.record("x", 0.0, 1.0) is None
        assert NULL_TRACER.event("x") is None

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_store_hot_path_records_nothing_when_disabled(self, tmp_path):
        import numpy as np

        from repro.core import Grid
        from repro.data.store import EnsembleStore

        grid = Grid(n_x=4, n_y=2)
        store = EnsembleStore(tmp_path, grid)
        values = np.arange(grid.n, dtype=float)
        store.write_member(0, values)
        assert store.read_member(0) == pytest.approx(values)
        tracer = Tracer()
        with use_tracer(tracer), use_metrics(MetricsRegistry()):
            store.read_member(0)
        names = [s.name for s in tracer.spans]
        assert names == ["store.read_member"]
        assert tracer.spans[0].attrs["bytes"] == values.nbytes


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("io.reads").inc()
        registry.counter("io.reads").inc(2)
        assert registry.counter("io.reads").value == 3.0
        with pytest.raises(ValueError):
            registry.counter("io.reads").inc(-1)

    def test_unset_gauge_omitted_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("cold")
        registry.gauge("warm").set(1.5)
        snap = registry.snapshot()
        assert snap["gauges"] == {"warm": 1.5}

    def test_histogram_bucket_edges(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0):
            h.observe(value)
        # bisect_left: a value equal to a bound lands in that bound's bucket
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.min == 0.5 and h.max == 99.0
        assert h.mean == pytest.approx(115.5 / 5)

    def test_histogram_bounds_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("lat", bounds=(1.0, 10.0))
        with pytest.raises(ValueError):
            registry.histogram("lat", bounds=(2.0, 20.0))

    def test_empty_histogram_mean_is_nan(self):
        registry = MetricsRegistry()
        assert math.isnan(registry.histogram("lat").mean)

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        json.dumps(registry.snapshot())

    def test_percentiles_interpolate_within_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(10.0, 20.0, 30.0))
        for value in (2.0, 12.0, 14.0, 22.0, 28.0):
            h.observe(value)
        p = h.percentiles()
        assert set(p) == {"p50", "p90", "p95", "p99"}
        # p50: target 2.5 of 5 with 1 below the (10, 20] bucket →
        # 1.5/2 of the way through it → 17.5
        assert p["p50"] == pytest.approx(17.5)
        # estimates never leave the observed range
        assert all(2.0 <= v <= 28.0 for v in p.values())
        assert p["p50"] <= p["p90"] <= p["p95"] <= p["p99"]

    def test_percentiles_of_single_observation_collapse(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(10.0,))
        h.observe(4.2)
        assert h.percentiles() == pytest.approx(
            {"p50": 4.2, "p90": 4.2, "p95": 4.2, "p99": 4.2}
        )

    def test_percentiles_clamped_to_observed_range_in_overflow(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(1.0,))
        for value in (50.0, 60.0, 70.0):  # all overflow
            h.observe(value)
        p = h.percentiles()
        assert all(50.0 <= v <= 70.0 for v in p.values())

    def test_percentiles_empty_and_invalid(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        assert h.percentiles() == {}
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentiles(quantiles=(1.5,))

    def test_snapshot_carries_percentiles_only_when_observed(self):
        registry = MetricsRegistry()
        registry.histogram("cold")
        registry.histogram("warm").observe(0.2)
        snap = registry.snapshot()
        assert "percentiles" not in snap["histograms"]["cold"]
        assert snap["histograms"]["warm"]["percentiles"]["p50"] == pytest.approx(0.2)
        json.dumps(snap)

    def test_use_metrics_scopes_global(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert get_metrics() is registry
            get_metrics().counter("x").inc()
        assert get_metrics() is not registry
        assert registry.counter("x").value == 1.0

    def test_use_thread_metrics_overrides_per_thread(self):
        """The thread-local override wins in its own thread only —
        the isolation that keeps concurrent service jobs' accounting
        from bleeding into each other."""
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        observed = {}

        def worker():
            with use_thread_metrics(theirs):
                get_metrics().counter("x").inc()
                observed["inside"] = get_metrics()

        with use_thread_metrics(mine):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert get_metrics() is mine
        assert observed["inside"] is theirs
        assert theirs.counter("x").value == 1.0
        assert mine.counter("x").value == 0.0

    def test_use_thread_metrics_nests_and_none_passes_through(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_thread_metrics(outer):
            with use_thread_metrics(inner):
                assert get_metrics() is inner
            assert get_metrics() is outer
            with use_thread_metrics(None):  # no-op scope
                assert get_metrics() is outer
        assert get_metrics() is not outer

    def test_snapshot_consistent_under_concurrent_writers(self):
        """snapshot() taken while 8 threads hammer all three metric
        kinds must be internally consistent (histogram bucket counts sum
        to its count) and the final tallies lossless."""
        registry = MetricsRegistry()
        n_threads, n_ops = 8, 200
        start = threading.Barrier(n_threads + 1)

        def work(tid):
            start.wait()
            for i in range(n_ops):
                registry.counter("c").inc()
                registry.gauge(f"g.{tid}").set(float(i))
                registry.histogram("h", bounds=(0.5,)).observe(i % 2)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        start.wait()
        for _ in range(20):  # snapshots taken mid-flight
            snap = registry.snapshot()
            hist = snap["histograms"].get("h")
            if hist:
                assert sum(hist["counts"]) == hist["count"]
            json.dumps(snap)
        for t in threads:
            t.join()
        final = registry.snapshot()
        assert final["counters"]["c"] == n_threads * n_ops
        assert final["histograms"]["h"]["count"] == n_threads * n_ops

    def test_percentiles_from_buckets_empty_and_single(self):
        assert percentiles_from_buckets([1.0], [0, 0], 0, math.inf, -math.inf) == {}
        p = percentiles_from_buckets([10.0], [1, 0], 1, 4.2, 4.2)
        assert p == pytest.approx(
            {"p50": 4.2, "p90": 4.2, "p95": 4.2, "p99": 4.2}
        )

    def test_percentiles_from_buckets_matches_live_histogram(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", bounds=(10.0, 20.0, 30.0))
        for value in (2.0, 12.0, 14.0, 22.0, 28.0):
            h.observe(value)
        assert percentiles_from_buckets(
            list(h.bounds), list(h.counts), h.count, h.min, h.max
        ) == pytest.approx(h.percentiles())

    def test_percentiles_from_buckets_rejects_bad_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            percentiles_from_buckets([1.0], [1, 0], 1, 0.5, 0.5, (2.0,))


def _sample_tracer():
    tracer = Tracer(clock=FakeClock(step=0.5))
    with tracer.span("campaign", category="cycle", n_cycles=2):
        with tracer.span("cycle", category="cycle", cycle=0):
            with tracer.span("cycle.analysis", category="filter"):
                pass
        tracer.event("fault.injected", category="fault", member=1)
        tracer.record("fault.retry", 0.25, 0.75, category="fault", attempt=1)
    return tracer


class TestChromeExport:
    def test_round_trip_preserves_span_tree(self, tmp_path):
        tracer = _sample_tracer()
        path = write_chrome_trace(tmp_path / "trace.json", tracer=tracer)
        restored = spans_from_chrome(path)
        assert len(restored) == len(tracer.spans)
        original = {s.span_id: s for s in tracer.spans}
        t0 = min(s.start for s in tracer.spans)
        for span in restored:
            ref = original[span.span_id]
            assert span.name == ref.name
            assert span.category == ref.category
            assert span.parent_id == ref.parent_id
            assert span.track == ref.track
            assert span.start == pytest.approx(ref.start - t0, abs=1e-9)
            assert span.duration == pytest.approx(ref.duration, abs=1e-9)

    def test_numpy_attrs_export_as_plain_values(self, tmp_path):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x", n=np.int64(3), sizes=np.arange(2)):
            pass
        path = write_chrome_trace(tmp_path / "trace.json", tracer=tracer)
        (span,) = spans_from_chrome(path)
        assert span.attrs == {"n": 3, "sizes": [0, 1]}

    def test_round_trip_preserves_worker_tracks_and_nesting(self, tmp_path):
        """Multi-track captures — a dispatch span plus spans recorded
        onto explicit ``worker-<id>`` tracks — must survive export +
        re-import with track assignment and parentage intact."""
        tracer = Tracer(clock=FakeClock(step=0.25))
        with tracer.span("parallel.run", category="parallel"):
            for pid in (4001, 4002):
                for chunk in range(2):
                    t0 = tracer.now()
                    t1 = tracer.now()
                    tracer.record(
                        "parallel.local_analysis", t0, t1,
                        category="parallel", track=f"worker-{pid}",
                        chunk=chunk,
                    )
        path = write_chrome_trace(tmp_path / "workers.json", tracer=tracer)
        restored = {s.span_id: s for s in spans_from_chrome(path)}
        original = {s.span_id: s for s in tracer.spans}
        assert set(restored) == set(original)
        assert {s.track for s in restored.values()} == {
            "main", "worker-4001", "worker-4002",
        }
        run_span = next(
            s for s in restored.values() if s.name == "parallel.run"
        )
        workers = [
            s for s in restored.values()
            if s.track.startswith("worker-")
        ]
        assert len(workers) == 4
        for span in workers:
            ref = original[span.span_id]
            assert span.track == ref.track
            # worker spans stay parented under the dispatching span even
            # though they render on another track
            assert span.parent_id == run_span.span_id
            assert span.duration == pytest.approx(ref.duration, abs=1e-9)
        by_track = {}
        for span in sorted(workers, key=lambda s: s.start):
            by_track.setdefault(span.track, []).append(span.attrs["chunk"])
        assert by_track == {
            "worker-4001": [0, 1], "worker-4002": [0, 1],
        }

    def test_round_trip_from_json_string(self):
        tracer = _sample_tracer()
        payload = chrome_trace(spans=tracer.spans, events=tracer.events)
        restored = spans_from_chrome(json.dumps(payload))
        assert {s.name for s in restored} == {s.name for s in tracer.spans}

    def test_instant_events_exported(self):
        tracer = _sample_tracer()
        payload = chrome_trace(spans=tracer.spans, events=tracer.events)
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["fault.injected"]
        assert instants[0]["args"] == {"member": 1}

    def test_sim_timeline_lands_on_its_own_pid(self):
        from repro.sim.trace import PHASE_COMPUTE, PHASE_READ, Timeline

        timeline = Timeline()
        timeline.add(0, PHASE_READ, 0.0, 1.0)
        timeline.add(1, PHASE_COMPUTE, 0.5, 2.0)
        tracer = _sample_tracer()
        payload = chrome_trace(
            spans=tracer.spans, events=tracer.events, timeline=timeline
        )
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert pids == {REAL_PID, SIM_PID}
        sim = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["pid"] == SIM_PID
        ]
        assert {e["name"] for e in sim} == {PHASE_READ, PHASE_COMPUTE}
        # ids stay disjoint from the real capture's
        real_ids = {s.span_id for s in tracer.spans}
        sim_ids = {e["args"]["span_id"] for e in sim}
        assert not real_ids & sim_ids

    def test_timeline_adapter_tracks_by_rank(self):
        from repro.sim.trace import PHASE_READ, Timeline

        timeline = Timeline()
        timeline.add(3, PHASE_READ, 0.0, 1.0)
        (span,) = spans_from_timeline(timeline)
        assert span.track == "rank 3"
        assert span.category == "sim"


class TestAsciiRendering:
    def test_render_spans_shows_nesting(self):
        tracer = _sample_tracer()
        out = render_spans(tracer.spans)
        assert "campaign" in out
        assert "  cycle" in out  # indented child

    def test_render_spans_truncates_with_note(self):
        tracer = Tracer(clock=FakeClock())
        for k in range(5):
            tracer.record(f"s{k}", float(k), k + 0.5)
        out = render_spans(tracer.spans, max_rows=2)
        assert "3 more spans not shown" in out

    def test_render_empty(self):
        assert "(no spans)" in render_spans([])
        assert "(no spans)" in render_phase_totals(Tracer())

    def test_render_timeline(self):
        from repro.sim.trace import PHASE_READ, Timeline

        timeline = Timeline()
        timeline.add(0, PHASE_READ, 0.0, 2.0)
        assert "read" in render_timeline(timeline)

    def test_render_phase_totals(self):
        out = render_phase_totals(_sample_tracer())
        assert "cycle" in out and "filter" in out and "fault" in out


class TestRunReport:
    def make(self):
        return RunReport(
            kind="twin-campaign",
            config={"experiment": "t"},
            seeds={"master_seed": 3},
            n_cycles=4,
            fault_counts={"retries": 2.0},
            phase_totals={"io": 0.5},
            metrics={"counters": {"io.reads": 4.0}},
            diagnostics={"analysis_rmse": [0.2, 0.1]},
            notes=["unit test"],
        )

    def test_write_and_reload(self, tmp_path):
        path = self.make().write(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        report = RunReport.from_dict(payload)
        assert report.kind == "twin-campaign"
        assert report.diagnostics["analysis_rmse"] == [0.2, 0.1]

    def test_validate_names_every_violation(self):
        payload = self.make().to_dict()
        del payload["seeds"]
        payload["n_cycles"] = "four"
        with pytest.raises(ValueError) as err:
            validate_run_report(payload)
        message = str(err.value)
        assert "seeds" in message and "n_cycles" in message

    def test_unknown_schema_rejected(self):
        payload = self.make().to_dict()
        payload["schema"] = "senkf-run-report/99"
        with pytest.raises(ValueError, match="unknown schema"):
            validate_run_report(payload)

    def test_negative_phase_total_rejected(self):
        payload = self.make().to_dict()
        payload["phase_totals"]["io"] = -1.0
        with pytest.raises(ValueError, match="phase_totals"):
            validate_run_report(payload)

    def test_ragged_diagnostics_rejected(self):
        payload = self.make().to_dict()
        payload["diagnostics"]["analysis_rmse"] = [0.1, "oops"]
        with pytest.raises(ValueError, match="diagnostics"):
            validate_run_report(payload)

    def test_invalid_report_never_hits_disk(self, tmp_path):
        report = self.make()
        report.n_cycles = -1
        target = tmp_path / "report.json"
        with pytest.raises(ValueError):
            report.write(target)
        assert not target.exists()


class TestWallTimer:
    def test_laps_sum_to_elapsed(self):
        from repro.util.timing import WallTimer

        with WallTimer() as timer:
            for _ in range(3):
                timer.lap()
        assert len(timer.laps) == 3
        assert sum(timer.laps) <= timer.elapsed
        assert timer.elapsed_ns >= 0
        assert timer.elapsed == pytest.approx(timer.elapsed_ns / 1e9)

    def test_lap_outside_context_raises(self):
        from repro.util.timing import WallTimer

        with pytest.raises(RuntimeError):
            WallTimer().lap()
