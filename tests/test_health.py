"""The live health plane: probes, alert rules, health reports.

Fast tier: everything here runs on tiny ensembles or synthetic stats.
"""

import json
import math

import numpy as np
import pytest

from repro.core import Decomposition, Grid, ObservationNetwork, radius_to_halo
from repro.filters import PEnKF
from repro.models import (
    AdvectionDiffusionModel,
    TwinExperiment,
    correlated_ensemble,
)
from repro.telemetry import (
    HEALTH_SCHEMA,
    Alert,
    AlertEngine,
    AlertRule,
    HealthProbe,
    HealthReport,
    MetricsRegistry,
    RunReport,
    Tracer,
    default_filter_rules,
    render_health,
    use_metrics,
    use_tracer,
    validate_health_report,
    validate_run_report,
)


class TestAlertRule:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            AlertRule("r", "m", "!=", 1.0)

    def test_bad_sustained_rejected(self):
        with pytest.raises(ValueError, match="sustained"):
            AlertRule("r", "m", "<", 1.0, sustained=0)

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            AlertRule("r", "m", "<", 1.0, severity="page")

    def test_holds_is_nan_safe(self):
        rule = AlertRule("r", "m", "<", 1.0)
        assert rule.holds(0.5)
        assert not rule.holds(2.0)
        assert not rule.holds(math.nan)

    def test_alert_message_names_rule_and_cycle(self):
        alert = Alert(
            rule="collapse", metric="spread_skill", cycle=4,
            value=0.1, threshold=0.2, op="<", severity="critical",
        )
        assert "collapse" in alert.message and "cycle 4" in alert.message


class TestAlertEngine:
    def test_sustained_counts_consecutive_violations(self):
        engine = AlertEngine([AlertRule("low", "x", "<", 1.0, sustained=3)])
        assert engine.evaluate(0, {"x": 0.5}) == []
        assert engine.evaluate(1, {"x": 0.5}) == []
        fired = engine.evaluate(2, {"x": 0.5})
        assert [a.rule for a in fired] == ["low"]
        assert fired[0].cycle == 2

    def test_streak_resets_on_recovery(self):
        engine = AlertEngine([AlertRule("low", "x", "<", 1.0, sustained=2)])
        engine.evaluate(0, {"x": 0.5})
        engine.evaluate(1, {"x": 5.0})  # recovers, streak resets
        assert engine.evaluate(2, {"x": 0.5}) == []
        assert engine.evaluate(3, {"x": 0.5}) != []

    def test_missing_or_nan_stat_is_no_evidence(self):
        engine = AlertEngine([AlertRule("low", "x", "<", 1.0, sustained=2)])
        engine.evaluate(0, {"x": 0.5})
        engine.evaluate(1, {})  # missing → streak reset
        engine.evaluate(2, {"x": 0.5})
        assert engine.evaluate(3, {"x": math.nan}) == []
        assert engine.fired == []

    def test_latched_until_cleared_then_rearms(self):
        engine = AlertEngine([AlertRule("low", "x", "<", 1.0)])
        assert len(engine.evaluate(0, {"x": 0.5})) == 1
        # Still violating: latched, no duplicate alert.
        assert engine.evaluate(1, {"x": 0.4}) == []
        assert engine.active == ["low"]
        # Clears, then violates again: fires anew.
        engine.evaluate(2, {"x": 2.0})
        assert engine.active == []
        assert len(engine.evaluate(3, {"x": 0.5})) == 1
        assert len(engine.fired) == 2

    def test_default_rule_sets_validate(self):
        for rule in default_filter_rules():
            assert rule.severity in ("warning", "critical")


def _healthy_ensembles(rng, n=12, members=8):
    background = rng.normal(size=(n, members))
    analysis = background * 0.9
    return background, analysis


class TestHealthProbe:
    def test_healthy_cycle_fires_nothing(self):
        rng = np.random.default_rng(0)
        probe = HealthProbe()
        background, analysis = _healthy_ensembles(rng)
        stats = probe.observe_cycle(
            0, background, analysis, None, None, None,
            analysis_rmse=1.0,
        )
        assert probe.engine.fired == []
        assert stats["spread_skill"] == pytest.approx(
            float(np.sqrt(np.mean(analysis.std(axis=1, ddof=1) ** 2)))
        )
        assert math.isnan(stats["innovation_chi2"])

    def test_collapse_detected_from_degenerate_ensemble(self):
        rng = np.random.default_rng(1)
        probe = HealthProbe()
        background, analysis = _healthy_ensembles(rng)
        collapsed = analysis * 1e-3  # spread ≪ error
        for cycle in range(3):
            probe.observe_cycle(
                cycle, background, collapsed, None, None, None,
                analysis_rmse=1.0,
            )
        assert "ensemble_collapse" in [a.rule for a in probe.engine.fired]

    def test_rank_deficiency_detected(self):
        probe = HealthProbe()
        member = np.random.default_rng(2).normal(size=12)
        # Every member identical up to scale: anomaly rank 1 < N - 1.
        analysis = np.column_stack([member * s for s in (1.0, 2.0, 3.0, 4.0)])
        stats = probe.observe_cycle(
            0, analysis, analysis, None, None, None, analysis_rmse=1.0
        )
        assert stats["rank_deficiency"] > 0
        assert "rank_deficiency" in [a.rule for a in probe.engine.fired]

    def test_divergence_tracks_best_rmse(self):
        rng = np.random.default_rng(3)
        probe = HealthProbe()
        background, analysis = _healthy_ensembles(rng)
        for cycle, rmse in enumerate([1.0, 0.5, 2.0, 2.0]):
            probe.observe_cycle(
                cycle, background, analysis, None, None, None,
                analysis_rmse=rmse,
            )
        # 2.0 / 0.5 = 4 > 3 for two cycles → filter_divergence.
        assert "filter_divergence" in [a.rule for a in probe.engine.fired]

    def test_on_alert_hook_receives_new_alerts(self):
        seen = []
        probe = HealthProbe(
            rules=[AlertRule("low", "x", "<", 1.0)],
            on_alert=lambda alerts, stats: seen.append(
                [a.rule for a in alerts]
            ),
        )
        probe.observe_stats(0, {"x": 0.5})
        probe.observe_stats(1, {"x": 0.5})  # latched: hook not re-invoked
        assert seen == [["low"]]

    def test_gauges_published_only_with_tracer(self):
        registry = MetricsRegistry()
        probe = HealthProbe(rules=())
        with use_metrics(registry):
            probe.observe_stats(0, {"x": 1.0})
        assert registry.snapshot()["gauges"] == {}

        with use_metrics(registry):
            with use_tracer(Tracer()):
                probe.observe_stats(1, {"x": 2.0})
        assert registry.snapshot()["gauges"]["health.x"] == 2.0

    def test_alert_counter_bumped_even_without_tracer(self):
        registry = MetricsRegistry()
        probe = HealthProbe(rules=[AlertRule("low", "x", "<", 1.0)])
        with use_metrics(registry):
            probe.observe_stats(0, {"x": 0.5})
        assert registry.snapshot()["counters"]["health.alerts_fired"] == 1


def demo_campaign(master_seed, *, inflation=1.05, n_members=8):
    """A tiny-ocean twin (16×8 grid, 2×2 P-EnKF, 30 observations) with
    the stock filter-health probe attached; a pure function of
    ``master_seed``.  ``inflation``/``n_members`` build the pathological
    variant (inflation off, tiny ensemble) whose collapse the probe must
    catch.  Returns ``(twin, truth0, ensemble0)``."""
    grid = Grid(n_x=16, n_y=8, dx_km=5.0, dy_km=5.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    radius_km = 12.0
    xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=30, obs_error_std=0.2,
        rng=np.random.default_rng(master_seed + 1),
    )
    filt = PEnKF(radius_km=radius_km, inflation=inflation, ridge=1e-2)
    twin = TwinExperiment(
        model,
        network,
        lambda states, y, rng: filt.assimilate(
            decomp, states, network, y, rng=rng
        ),
        steps_per_cycle=2,
        master_seed=master_seed,
        health=HealthProbe(),
    )
    rng = np.random.default_rng(master_seed + 2)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=15.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, n_members, length_scale_km=15.0, mean=np.zeros(grid.n),
        std=0.8, rng=rng,
    )
    return twin, truth0, ensemble0


class TestDemoCampaignHealth:
    """The seeded scenarios of the acceptance criteria, on the demo twin."""

    def test_healthy_demo_campaign_fires_zero_alerts(self):
        twin, truth0, ensemble0 = demo_campaign(5)
        twin.run(truth0, ensemble0, 5)
        assert twin.health.engine.fired == []
        assert twin.health.engine.evaluations == 5

    def test_seeded_collapse_fires_within_three_cycles(self):
        twin, truth0, ensemble0 = demo_campaign(9, inflation=1.0, n_members=3)
        twin.run(truth0, ensemble0, 3)
        collapse = [
            a for a in twin.health.engine.fired
            if a.rule == "ensemble_collapse"
        ]
        assert collapse and collapse[0].cycle < 3

    def test_run_report_embeds_validating_health(self):
        twin, truth0, ensemble0 = demo_campaign(5)
        result = twin.run(truth0, ensemble0, 3)
        report = twin.run_report(result)
        payload = json.loads(report.to_json())
        assert payload["health"]["schema"] == HEALTH_SCHEMA
        validate_run_report(payload)
        assert payload["health"]["n_evaluations"] == 3


class TestHealthReport:
    def make(self):
        probe = HealthProbe(rules=[AlertRule("low", "x", "<", 1.0)])
        probe.observe_stats(0, {"x": 2.0})
        probe.observe_stats(1, {"x": 0.5})
        return probe.report(kind="filter", notes=["unit test"])

    def test_roundtrip(self, tmp_path):
        path = self.make().write(tmp_path / "health.json")
        report = HealthReport.from_dict(json.loads(path.read_text()))
        assert report.kind == "filter"
        assert report.alerts_fired == 1
        assert report.series["x"] == [2.0, 0.5]

    def test_nan_stats_serialize_as_null(self):
        probe = HealthProbe(rules=())
        probe.observe_stats(0, {"x": math.nan})
        payload = json.loads(probe.report().to_json())
        assert payload["series"]["x"] == [None]
        assert payload["last"]["x"] is None
        validate_health_report(payload)

    def test_validate_names_every_violation(self):
        payload = self.make().to_dict()
        del payload["rules"]
        payload["n_evaluations"] = "two"
        with pytest.raises(ValueError) as err:
            validate_health_report(payload)
        message = str(err.value)
        assert "rules" in message
        assert "n_evaluations" in message

    def test_validate_rejects_incomplete_alert_rows(self):
        payload = self.make().to_dict()
        payload["alerts"] = [{"rule": "low"}]  # missing keys
        with pytest.raises(ValueError, match=r"alerts\[0\]"):
            validate_health_report(payload)

    def test_unknown_schema_rejected(self):
        payload = self.make().to_dict()
        payload["schema"] = "senkf-health/99"
        with pytest.raises(ValueError, match="unknown schema"):
            validate_health_report(payload)

    def test_invalid_report_never_hits_disk(self, tmp_path):
        report = self.make()
        report.n_evaluations = -1
        target = tmp_path / "health.json"
        with pytest.raises(ValueError):
            report.write(target)
        assert not target.exists()

    def test_run_report_rejects_bad_health_section(self):
        run = RunReport(kind="t", health={"schema": "nope"})
        with pytest.raises(ValueError, match="health"):
            validate_run_report(json.loads(run.to_json()))

    def test_render_flags_violated_rules_and_lists_alerts(self):
        text = render_health(self.make().to_dict())
        assert "1 alert(s) fired" in text
        assert "!! violated now" in text
        assert "ALERT critical: low at cycle 1" in text
