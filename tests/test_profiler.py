"""The resource observatory: sampling profiler + memory attribution.

Covers the profiler's edge cases (start/stop idempotence, disabled-path
zero overhead, pool-thread samples in both export formats),
tracemalloc-unavailable degradation, the footprint join's drift
conventions and the ``senkf-profile/2`` validator.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.telemetry import memprof
from repro.telemetry.memprof import (
    PROFILE_SCHEMA,
    MemoryProfiler,
    build_profile_report,
    current_rss_bytes,
    default_memory_rules,
    footprint_attribution,
    peak_rss_bytes,
    publish_memory_gauges,
    validate_profile_report,
    write_profile_report,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    SamplingProfiler,
    UNTRACED_PHASE,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.telemetry.tracer import Tracer, use_tracer


def spin(seconds):
    """Busy-loop long enough for the sampler to catch us."""
    deadline = time.perf_counter() + seconds
    x = 0.0
    while time.perf_counter() < deadline:
        x += np.dot(np.ones(64), np.ones(64))
    return x


class TestSamplingProfiler:
    def test_collects_attributed_samples(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        with use_tracer(tracer), profiler:
            with tracer.span("work", category="compute"):
                spin(0.15)
        report = profiler.report()
        assert report["n_samples"] > 0
        assert report["phase_samples"].get("compute", 0) > 0
        assert report["attributed_fraction"] > 0.5
        assert "main" in report["tracks"]

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(interval=0.001)
        profiler.start()
        profiler.start()  # second start is a no-op, not a second thread
        assert threading.active_count() == threading.active_count()
        spin(0.02)
        profiler.stop()
        n = profiler.report()["n_samples"]
        profiler.stop()  # idempotent; sample counts unchanged
        assert profiler.report()["n_samples"] == n
        assert not profiler.running

    def test_restart_accumulates(self):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.05)
        first = profiler.report()["n_samples"]
        with profiler:
            spin(0.05)
        assert profiler.report()["n_samples"] >= first

    def test_untraced_samples_flagged(self):
        # No ambient tracer: every sample lands in the untraced bucket
        # and the attributed fraction is honest about it.
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            spin(0.1)
        report = profiler.report()
        assert report["n_samples"] > 0
        assert report["phase_samples"] == {
            UNTRACED_PHASE: report["n_samples"]
        }
        assert report["attributed_fraction"] == 0.0

    def test_default_is_null_and_disabled(self):
        assert get_profiler() is NULL_PROFILER
        assert not get_profiler().enabled
        assert NULL_PROFILER.interval == 0.0
        # The null object swallows the whole surface without effect.
        NULL_PROFILER.start()
        NULL_PROFILER.stop()
        assert NULL_PROFILER.report() == {}

    def test_use_profiler_scopes_ambient(self):
        profiler = SamplingProfiler(interval=0.01)
        with use_profiler(profiler):
            assert get_profiler() is profiler
            assert get_profiler().enabled
        assert get_profiler() is NULL_PROFILER

    def test_set_profiler_returns_previous(self):
        profiler = SamplingProfiler(interval=0.01)
        prev = set_profiler(profiler)
        try:
            assert get_profiler() is profiler
        finally:
            set_profiler(prev)
        assert get_profiler() is prev


class TestExports:
    def _seeded_profiler(self):
        """A profiler holding five samples of one pool thread, as the
        sweep would have counted them."""
        profiler = SamplingProfiler(interval=0.001)
        for stack, count in [(("worker:main", "kernels:solve"), 3),
                             (("worker:main", "kernels:stage"), 2)]:
            profiler._counts[("senkf-analysis_0", "parallel", stack)] = count
        return profiler

    def test_pool_thread_samples_round_trip_collapsed(self):
        profiler = self._seeded_profiler()
        lines = dict(
            line.rsplit(" ", 1) for line in profiler.collapsed().splitlines()
        )
        assert lines["senkf-analysis_0;parallel;worker:main;kernels:solve"] == "3"
        assert lines["senkf-analysis_0;parallel;worker:main;kernels:stage"] == "2"
        assert profiler.phase_samples() == {"parallel": 5}
        assert profiler.attributed_fraction() == 1.0

    def test_pool_thread_samples_round_trip_speedscope(self, tmp_path):
        profiler = self._seeded_profiler()
        path = profiler.write_speedscope(tmp_path / "p.speedscope.json")
        doc = json.loads(path.read_text())
        assert doc["$schema"].endswith("file-format-schema.json")
        prof = {p["name"]: p for p in doc["profiles"]}["senkf-analysis_0"]
        assert prof["type"] == "sampled"
        # 5 samples, each stack rooted at the phase frame.
        assert sum(prof["weights"]) == 5
        frames = [f["name"] for f in doc["shared"]["frames"]]
        for sample in prof["samples"]:
            assert frames[sample[0]] == "parallel"

    def test_collapsed_file_export(self, tmp_path):
        profiler = self._seeded_profiler()
        path = profiler.write_collapsed(tmp_path / "p.collapsed")
        assert path.read_text() == profiler.collapsed() + "\n"

    def test_report_top_limits_stacks(self):
        profiler = self._seeded_profiler()
        report = profiler.report(top=1)
        assert len(report["top_stacks"]) == 1
        assert report["top_stacks"][0]["count"] == 3


class TestMemoryProfiler:
    def test_phase_deltas_and_report_shape(self):
        mem = MemoryProfiler()
        mem.start()
        with mem.phase("alloc"):
            block = np.ones(2_000_000)  # ~16 MB
        del block
        mem.stop()
        report = mem.report()
        assert report["baseline_rss_bytes"] > 0
        assert report["peak_rss_bytes"] >= report["baseline_rss_bytes"]
        phase = report["phases"]["alloc"]
        assert phase["count"] == 1
        if report["tracemalloc"]["available"]:
            assert phase["tracemalloc_delta_bytes"] > 10_000_000

    def test_tracemalloc_unavailable_degrades(self, monkeypatch):
        monkeypatch.setattr(memprof, "tracemalloc", None)
        mem = MemoryProfiler()
        mem.start()
        with mem.phase("alloc"):
            pass
        mem.stop()
        report = mem.report()
        assert report["tracemalloc"]["available"] is False
        assert report["tracemalloc"]["peak_bytes"] is None
        assert any("tracemalloc" in note for note in report["notes"])
        # The payload the degraded profiler feeds still validates.
        validate_profile_report(build_profile_report(memory=report))

    def test_observe_cycle_growth(self):
        with MemoryProfiler() as mem:  # stop() ends the tracemalloc it started
            first = mem.observe_cycle()
            second = mem.observe_cycle()
        for stats in (first, second):
            assert set(stats) == {"rss_bytes", "rss_growth_bytes"}
        assert first["rss_bytes"] > 0

    def test_default_memory_rules_fire_on_sustained_growth(self):
        from repro.telemetry import AlertEngine

        engine = AlertEngine(default_memory_rules(
            growth_bytes=1000, sustained=2
        ))
        assert engine.evaluate(0, {"rss_growth_bytes": 5000}) == []
        fired = engine.evaluate(1, {"rss_growth_bytes": 5000})
        assert [a.rule for a in fired] == ["memory_runaway"]
        assert fired[0].severity == "critical"

    def test_rss_probes_positive(self):
        assert current_rss_bytes() > 0
        assert peak_rss_bytes() >= current_rss_bytes() * 0.5

    def test_publish_memory_gauges(self):
        metrics = MetricsRegistry()
        publish_memory_gauges(
            metrics, geometry_cache_bytes=123.0, tracemalloc_peak=456.0
        )
        snap = metrics.snapshot()["gauges"]
        assert snap["process.rss_bytes"] > 0
        assert snap["geometry.cache_bytes"] == 123.0
        assert snap["tracemalloc.peak_bytes"] == 456.0
        assert "shm.live_bytes" not in snap  # gone with the segments


class TestFootprintJoin:
    def test_within_threshold(self):
        join = footprint_attribution(
            predicted_increment_bytes=1000.0,
            baseline_rss_bytes=100_000.0,
            measured_peak_rss_bytes=101_500.0,
        )
        assert join["predicted_peak_rss_bytes"] == 101_000.0
        assert abs(join["rel_error"]) < 0.15
        assert join["drift_flags"] == []

    def test_drift_flag_raised(self):
        join = footprint_attribution(
            predicted_increment_bytes=0.0,
            baseline_rss_bytes=50_000.0,
            measured_peak_rss_bytes=100_000.0,
        )
        assert len(join["drift_flags"]) == 1
        assert "peak_rss" in join["drift_flags"][0]

    def test_nothing_measured(self):
        join = footprint_attribution(
            predicted_increment_bytes=10.0,
            baseline_rss_bytes=10.0,
            measured_peak_rss_bytes=0.0,
        )
        assert join["rel_error"] is None
        assert "nothing measured" in join["drift_flags"][0]

    def test_predicted_footprint_components(self):
        from repro.costmodel import CostParams, predicted_footprint_bytes

        p = CostParams(
            n_x=24, n_y=12, n_members=16, h=8.0, xi=2, eta=1,
            a=0.0, b=0.0, c=0.0, theta=0.0,
        )
        parts = predicted_footprint_bytes(
            p, n_sdx=2, n_sdy=2, n_layers=1, n_cg=1,
            geometry_cache_bytes=512.0,
        )
        assert parts["ensemble_bytes"] == 2 * 24 * 12 * 8.0 * 16
        assert parts["geometry_cache_bytes"] == 512.0
        assert parts["total_bytes"] == pytest.approx(
            parts["ensemble_bytes"] + parts["staging_bytes"] + 512.0
        )


class TestProfileReport:
    def _full_payload(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        mem = MemoryProfiler()
        mem.start()
        with use_tracer(tracer), profiler:
            with tracer.span("work", category="compute"):
                spin(0.05)
        mem.stop()
        footprint = footprint_attribution(
            1000.0, mem.report()["baseline_rss_bytes"],
            mem.report()["peak_rss_bytes"],
        )
        return build_profile_report(
            sampler=profiler.report(), memory=mem.report(),
            footprint=footprint, notes=["test"],
        )

    def test_round_trip_write(self, tmp_path):
        payload = self._full_payload()
        path = write_profile_report(payload, tmp_path / "profile.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == PROFILE_SCHEMA
        validate_profile_report(loaded)

    def test_validator_rejects_bad_payloads(self):
        wrong_schema = build_profile_report()
        wrong_schema["schema"] = "bogus/9"
        with pytest.raises(ValueError, match="schema"):
            validate_profile_report(wrong_schema)
        with pytest.raises(ValueError, match="missing key"):
            validate_profile_report({"schema": PROFILE_SCHEMA})
        payload = build_profile_report(sampler={"interval": 0.01})
        with pytest.raises(ValueError, match="sampler"):
            validate_profile_report(payload)
        payload = self._full_payload()
        payload["sampler"]["attributed_fraction"] = 1.5
        with pytest.raises(ValueError, match="attributed_fraction"):
            validate_profile_report(payload)

    def test_invalid_payload_never_hits_disk(self, tmp_path):
        target = tmp_path / "profile.json"
        with pytest.raises(ValueError):
            write_profile_report({"schema": PROFILE_SCHEMA}, target)
        assert not target.exists()

    def test_run_report_embeds_profile(self, tmp_path):
        from repro.telemetry import RunReport

        payload = self._full_payload()
        report = RunReport(
            kind="test", config={}, seeds={}, n_cycles=1, profile=payload
        )
        path = report.write(tmp_path / "run_report.json")
        loaded = json.loads(path.read_text())
        assert loaded["profile"]["schema"] == PROFILE_SCHEMA
        bad = RunReport(
            kind="test", config={}, seeds={}, n_cycles=1,
            profile={"schema": "bogus/9"},
        )
        with pytest.raises(ValueError, match="profile"):
            bad.write(tmp_path / "bad.json")


class TestThreadFanoutIntegration:
    def test_pool_thread_samples_appear_in_both_exports(self, tmp_path):
        """End to end: a profiled thread fan-out is bit-identical, and the
        pool threads — ordinary traced threads to the sweep — show up as
        ``senkf-analysis_<k>`` tracks in the collapsed and the speedscope
        export, attributed to the ``parallel`` phase."""
        from repro.filters.distributed import DistributedEnKF
        from tests.test_parallel import large_pieces_problem

        decomp, states, net, y = large_pieces_problem(seed=2)
        kwargs = dict(radius_km=60.0, inflation=1.05, ridge=1e-2)
        reference = DistributedEnKF(**kwargs).assimilate(
            decomp, states, net, y, rng=3
        )

        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001)
        filt = DistributedEnKF(workers=2, strategy="thread", **kwargs)
        try:
            with use_tracer(tracer), use_profiler(profiler), profiler:
                profiled = filt.assimilate(decomp, states, net, y, rng=3)
        finally:
            filt.close()

        assert np.array_equal(reference, profiled)
        report = profiler.report()
        pool_tracks = [
            t for t in report["tracks"] if t.startswith("senkf-analysis")
        ]
        assert pool_tracks
        assert report["phase_samples"]["parallel"] > 0
        # A pool thread parked between pieces is not sampled, so the
        # fan-out costs the attributed fraction nothing.
        assert report["attributed_fraction"] >= 0.9
        collapsed = profiler.collapsed().splitlines()
        doc = json.loads(
            profiler.write_speedscope(tmp_path / "p.json").read_text()
        )
        frames = [f["name"] for f in doc["shared"]["frames"]]
        by_name = {p["name"]: p for p in doc["profiles"]}
        for track in pool_tracks:
            assert any(ln.startswith(f"{track};parallel;") for ln in collapsed)
            assert not any(ln.startswith(f"{track};(untraced)") for ln in collapsed)
            assert {frames[s[0]] for s in by_name[track]["samples"]} == {
                "parallel"
            }

    def test_doctor_profile_attributes_with_thread_fanout(self, tmp_path):
        """``doctor --profile`` with the fan-out running in threads: the
        analysis stays bit-identical, >= 90 % of samples attribute to a
        known phase, the pool threads have their own tracks and the
        artifact is ``senkf-profile/2``.  (The exit code is not pinned:
        its footprint check reads the process's high-water RSS, which
        under pytest is the whole suite's.)"""
        from repro.experiments.cli import main

        out = tmp_path / "doctor"
        main(["doctor", "--profile", "--out", str(out)])
        payload = validate_profile_report(
            json.loads((out / "profile.json").read_text())
        )
        assert payload["schema"] == "senkf-profile/2"
        assert "shm" not in payload["memory"]
        assert payload["sampler"]["attributed_fraction"] >= 0.9
        assert any(
            t.startswith("senkf-analysis") for t in payload["sampler"]["tracks"]
        )
        assert "bit-identical to the unprofiled reference: yes" in payload["notes"]
        assert payload["memory"]["peak_rss_bytes"] > 0
        run_report = json.loads((out / "run_report.json").read_text())
        assert run_report["profile"]["schema"] == "senkf-profile/2"
        collapsed = (out / "profile.collapsed").read_text().splitlines()
        assert any(line.startswith("senkf-analysis") for line in collapsed)
