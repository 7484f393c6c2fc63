"""Tests for the predicted-vs-measured attribution layer (cost-model
observatory): per-phase joins, drift flags, schema validation, the
fitted-constants accuracy acceptance criterion, and the ``doctor`` verb
that runs them end to end."""

import json
import math

import pytest

from repro.cluster.params import MachineSpec
from repro.costmodel import fit_constants
from repro.experiments.cli import main
from repro.filters.base import PerfScenario
from repro.filters.senkf import simulate_senkf
from repro.telemetry import (
    ATTRIBUTION_SCHEMA,
    AttributionReport,
    RunReport,
    attribute_sim_reports,
    cycle_from_sim_report,
    cycle_from_spans,
    spans_from_timeline,
    validate_attribution_report,
    validate_run_report,
)
from repro.telemetry.attribution import CycleAttribution, PhaseAttribution

#: the doctor's calibration regime: an L sweep at fixed splits, so the
#: contention factors are constant and the constants absorb them exactly.
SWEEP_CONFIGS = ((4, 4, 3, 4), (4, 4, 5, 4), (4, 4, 9, 4), (4, 4, 15, 4))


@pytest.fixture(scope="module")
def sweep():
    """(reports, fitted) for a fault-free L sweep on the small machine."""
    spec = MachineSpec.small_cluster()
    scenario = PerfScenario.small()
    template = scenario.cost_params(spec)
    reports = [simulate_senkf(spec, scenario, *cfg) for cfg in SWEEP_CONFIGS]
    fit = fit_constants(reports, template)
    return reports, fit


class TestPhaseAttribution:
    def test_signed_relative_error(self):
        p = PhaseAttribution(phase="read", predicted=1.2, measured=1.0)
        assert p.abs_error == pytest.approx(0.2)
        assert p.rel_error == pytest.approx(0.2)
        under = PhaseAttribution(phase="read", predicted=0.8, measured=1.0)
        assert under.rel_error == pytest.approx(-0.2)

    def test_unmeasured_phase_is_infinite_drift(self):
        p = PhaseAttribution(phase="comm", predicted=0.5, measured=0.0)
        assert math.isinf(p.rel_error)
        # ...but serialises as null, keeping the payload JSON-safe
        assert p.to_dict()["rel_error"] is None
        json.dumps(p.to_dict())

    def test_nothing_predicted_nothing_measured_is_exact(self):
        p = PhaseAttribution(phase="comp", predicted=0.0, measured=0.0)
        assert p.rel_error == 0.0


class TestCycleFromSimReport:
    def test_measured_side_matches_phase_means(self, sweep):
        from repro.sim.trace import PHASE_COMM, PHASE_COMPUTE, PHASE_READ

        reports, fit = sweep
        report = reports[0]
        cycle = cycle_from_sim_report(report, fit.params)
        io = report.mean_phase_times("io")
        compute = report.mean_phase_times("compute")
        assert cycle.phase("read").measured == pytest.approx(io[PHASE_READ])
        assert cycle.phase("comm").measured == pytest.approx(io[PHASE_COMM])
        assert cycle.phase("comp").measured == pytest.approx(
            compute[PHASE_COMPUTE]
        )
        assert cycle.retry_seconds == 0.0  # fault-free run
        assert cycle.makespan == pytest.approx(report.total_time)
        assert cycle.config == {
            "n_sdx": 4, "n_sdy": 4, "n_layers": 3, "n_cg": 4,
        }

    def test_spans_path_agrees_with_report_path(self, sweep):
        """A trace re-import attributes identically to the raw timeline."""
        reports, fit = sweep
        report = reports[0]
        spans = spans_from_timeline(report.timeline)
        from_spans = cycle_from_spans(
            spans, fit.params,
            n_sdx=report.n_sdx, n_sdy=report.n_sdy,
            n_layers=report.n_layers, n_cg=report.n_cg,
            io_tracks={f"rank {r}" for r in report.io_ranks},
            compute_tracks={f"rank {r}" for r in report.compute_ranks},
        )
        from_report = cycle_from_sim_report(report, fit.params)
        for name in ("read", "comm", "comp"):
            assert from_spans.phase(name).measured == pytest.approx(
                from_report.phase(name).measured
            )
        assert from_spans.retry_seconds == pytest.approx(
            from_report.retry_seconds
        )


class TestAccuracyAcceptance:
    def test_fitted_constants_attribute_within_15_percent(self, sweep):
        """The acceptance criterion: on a traced simulated run, per-phase
        relative error with fitted constants stays ≤ 15% for read, comm
        and comp alike."""
        reports, fit = sweep
        report = attribute_sim_reports(reports, fit.params, fit=fit)
        for p in report.aggregate():
            assert abs(p.rel_error) <= 0.15, (
                f"{p.phase}: predicted {p.predicted} vs "
                f"measured {p.measured} ({p.rel_error:+.1%})"
            )
        # and per cycle, not just in aggregate
        for cycle in report.cycles:
            for name in ("read", "comm", "comp"):
                assert abs(cycle.phase(name).rel_error) <= 0.15
        assert report.drift_flags() == []

    def test_chaos_cycle_breaks_out_retry_spend(self):
        """Retry time lands in retry_seconds, not in the read row —
        attribution prices the fault-free machine."""
        from repro.faults import FaultSchedule, RetryPolicy

        spec = MachineSpec.small_cluster()
        scenario = PerfScenario.small()
        template = scenario.cost_params(spec)
        report = simulate_senkf(
            spec, scenario, 4, 4, 3, 4,
            faults=FaultSchedule(seed=7, disk_fault_rate=0.3),
            retry=RetryPolicy(),
        )
        assert report.resilience.retries > 0
        cycle = cycle_from_sim_report(report, template)
        assert cycle.retry_seconds > 0.0


class TestAttributionReport:
    def make(self, sweep, threshold=0.15):
        reports, fit = sweep
        return attribute_sim_reports(
            reports, fit.params, fit=fit, threshold=threshold,
            notes=["unit test"],
        )

    def test_aggregate_sums_cycles(self, sweep):
        report = self.make(sweep)
        agg = {p.phase: p for p in report.aggregate()}
        assert agg["read"].measured == pytest.approx(
            sum(c.phase("read").measured for c in report.cycles)
        )

    def test_drift_flags_respect_threshold(self, sweep):
        tight = self.make(sweep, threshold=1e-6)
        assert tight.drift_flags()  # nothing is *that* accurate
        loose = self.make(sweep, threshold=0.5)
        assert loose.drift_flags() == []

    def test_write_validates_and_round_trips(self, sweep, tmp_path):
        report = self.make(sweep)
        path = report.write(tmp_path / "attribution.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == ATTRIBUTION_SCHEMA
        validate_attribution_report(payload)
        assert payload["fit"]["constants"]["theta"] == pytest.approx(
            report.constants["theta"]
        )
        assert len(payload["cycles"]) == len(SWEEP_CONFIGS)

    def test_invalid_report_never_hits_disk(self, tmp_path):
        report = AttributionReport(cycles=[], threshold=-1.0)
        target = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="threshold"):
            report.write(target)
        assert not target.exists()

    def test_validator_names_every_violation(self, sweep):
        payload = self.make(sweep).to_dict()
        payload["threshold"] = -0.1
        payload["cycles"][0]["phases"][0]["phase"] = "sideways"
        with pytest.raises(ValueError) as err:
            validate_attribution_report(payload)
        message = str(err.value)
        assert "threshold" in message and "sideways" in message

    def test_unknown_schema_rejected(self, sweep):
        payload = self.make(sweep).to_dict()
        payload["schema"] = "senkf-attribution/99"
        with pytest.raises(ValueError, match="unknown schema"):
            validate_attribution_report(payload)

    def test_ascii_dashboard_renders(self, sweep):
        report = self.make(sweep)
        out = report.ascii_table()
        assert "constants:" in out
        assert "fit residuals" in out
        for phase in ("read", "comm", "comp"):
            assert phase in out
        assert "retry spend" in out
        # the per-cycle breakdown appears for multi-cycle reports
        assert "L=15" in out

    def test_histogram_percentiles_surface_on_dashboard(self, sweep):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        h = registry.histogram("cycle_seconds", bounds=(1.0, 10.0))
        for v in (0.5, 2.0, 3.0, 12.0):
            h.observe(v)
        reports, fit = sweep
        report = attribute_sim_reports(
            reports, fit.params, metrics=registry.snapshot()
        )
        assert "cycle_seconds" in report.ascii_table()
        assert "p50=" in report.ascii_table()


class TestRunReportEmbedding:
    def make_run_report(self, sweep):
        reports, fit = sweep
        attribution = attribute_sim_reports(reports, fit.params, fit=fit)
        return RunReport(
            kind="doctor",
            n_cycles=len(reports),
            phase_totals={p.phase: p.measured for p in attribution.aggregate()},
            attribution=attribution.to_dict(),
        )

    def test_embedded_attribution_validates(self, sweep, tmp_path):
        run_report = self.make_run_report(sweep)
        path = run_report.write(tmp_path / "run_report.json")
        restored = RunReport.from_dict(json.loads(path.read_text()))
        assert restored.attribution["schema"] == ATTRIBUTION_SCHEMA

    def test_embedded_attribution_violations_propagate(self, sweep):
        run_report = self.make_run_report(sweep)
        payload = run_report.to_dict()
        payload["attribution"]["schema"] = "senkf-attribution/99"
        with pytest.raises(ValueError, match="attribution"):
            validate_run_report(payload)

    def test_attribution_stays_optional(self):
        payload = RunReport(kind="plain").to_dict()
        assert payload["attribution"] is None
        validate_run_report(json.loads(json.dumps(payload)))


class TestDoctorCli:
    def test_doctor_writes_valid_artifacts_and_nothing_else(
        self, tmp_path, monkeypatch
    ):
        """The calibration ``doctor`` end to end: exit 0 once its two
        artifacts are written, every aggregate phase attributed within
        the threshold, and nothing left in the working directory."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(["doctor", "--out", str(out)]) == 0
        attribution = validate_attribution_report(
            json.loads((out / "attribution.json").read_text())
        )
        run_report = validate_run_report(
            json.loads((out / "run_report.json").read_text())
        )
        assert run_report["attribution"]["schema"] == attribution["schema"]
        for row in attribution["aggregate"]:
            rel = row["rel_error"]
            assert rel is not None and abs(rel) <= attribution["threshold"], row
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_history_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["doctor", "--history", str(tmp_path / "history.jsonl")])
        assert exc.value.code == 2
