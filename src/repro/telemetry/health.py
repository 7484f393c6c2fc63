"""Filter-health probes and declarative alert rules: the live health plane.

The cost-model observatory (PR 5) explains a run *after* it ends; this
module watches the run — and the filter itself — *while* it happens.
Operational DA centres treat innovation statistics and spread–skill
consistency as first-class outputs (EnKF-C user guide, arXiv 1410.1233),
because an ensemble Kalman filter fails in characteristic, detectable
ways long before its RMSE curve is plotted:

* **ensemble collapse** — the spread contracts far below the actual
  error (spread–skill ratio ≪ 1) or the anomaly matrix loses rank, after
  which the gain can no longer correct the state;
* **divergence** — the analysis RMSE runs away from its own history;
* **statistical inconsistency** — the innovation variance stops matching
  its prediction ``HBHᵀ + R`` (Desroziers et al. 2005, reused from
  :mod:`repro.core.diagnostics`).

A :class:`HealthProbe` computes these per cycle from the in/out
ensembles, streams them as ``health.*`` gauges through the ambient
:class:`~repro.telemetry.metrics.MetricsRegistry`, and evaluates a set
of declarative :class:`AlertRule`\\ s (threshold + sustained-for-N-cycles,
burn-style).  Newly fired alerts bump ``health.alerts_fired`` and invoke
the probe's ``on_alert`` hook — which is how a trace of the run so far
(:func:`~repro.telemetry.chrome.write_chrome_trace`) gets written
automatically at the moment of failure, not minutes later.

The rollup is a versioned :class:`HealthReport` (``senkf-health/1``)
embedded in :class:`~repro.telemetry.report.RunReport` (``health`` key),
rendered by :func:`render_health` and ``senkf-experiments doctor
--report``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.telemetry.metrics import get_metrics
from repro.telemetry.schema import HEALTH_SCHEMA, Artifact, validate
from repro.telemetry.tracer import get_tracer

__all__ = [
    "HEALTH_SCHEMA",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "HealthProbe",
    "HealthReport",
    "default_filter_rules",
    "render_health",
    "validate_health_report",
]

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative predicate over a health statistic.

    ``value <op> threshold`` must hold for ``sustained`` *consecutive*
    evaluations before the rule fires (burn-style, so a single noisy
    cycle never pages anyone); after firing, the rule stays latched
    until the predicate clears, then re-arms.  Evaluations where the
    statistic is missing or NaN reset the streak — no data is treated
    as no evidence, not as a violation.
    """

    name: str
    metric: str
    op: str
    threshold: float
    sustained: int = 1
    severity: str = "critical"

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: op must be one of {sorted(_OPS)}, "
                f"got {self.op!r}"
            )
        if self.sustained < 1:
            raise ValueError(
                f"rule {self.name!r}: sustained must be >= 1, "
                f"got {self.sustained}"
            )
        if self.severity not in ("warning", "critical"):
            raise ValueError(
                f"rule {self.name!r}: severity must be 'warning' or "
                f"'critical', got {self.severity!r}"
            )

    def holds(self, value: float) -> bool:
        return not math.isnan(value) and _OPS[self.op](value, self.threshold)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Alert:
    """One firing of one rule."""

    rule: str
    metric: str
    cycle: int
    value: float
    threshold: float
    op: str
    severity: str

    @property
    def message(self) -> str:
        return (
            f"{self.rule}: {self.metric}={self.value:.4g} "
            f"{self.op} {self.threshold:.4g} at cycle {self.cycle}"
        )

    def to_dict(self) -> dict:
        return asdict(self)


def default_filter_rules() -> tuple[AlertRule, ...]:
    """The stock filter-health rules, all on scale-free ratios.

    Thresholds are deliberately loose: a healthy twin experiment
    (spread–skill near 1, innovation χ² near 1) never trips them, while
    a collapsing or diverging filter crosses them within a few cycles.
    """
    return (
        # Spread contracted to a fifth of the actual error for two
        # consecutive cycles: the classic underdispersion signature.
        # (Small healthy ensembles sit near 0.3–0.5 on the demo problem;
        # the collapsing variant drops below 0.15 within two cycles.)
        AlertRule("ensemble_collapse", "spread_skill", "<", 0.2,
                  sustained=2, severity="critical"),
        # Anomaly matrix lost directions: degenerate ensemble.
        AlertRule("rank_deficiency", "rank_deficiency", ">", 0.0,
                  sustained=1, severity="critical"),
        # Analysis error tripled relative to the best cycle seen so far,
        # and keeps growing: the filter is no longer tracking.
        AlertRule("filter_divergence", "rmse_growth", ">", 3.0,
                  sustained=2, severity="critical"),
        # Innovations far outside their predicted variance budget.
        AlertRule("innovation_inconsistency", "innovation_chi2", ">", 10.0,
                  sustained=3, severity="warning"),
    )


class AlertEngine:
    """Evaluates a rule set against successive stats dicts.

    Stateless rules + per-rule streak/latch state; generic over what the
    stats describe: :class:`HealthProbe` feeds it per-cycle filter
    statistics, and ``doctor --profile`` feeds it resource gauges under
    :func:`~repro.telemetry.memprof.default_memory_rules`.
    """

    def __init__(self, rules: Sequence[AlertRule] = ()):
        self.rules = tuple(rules)
        self._streak: dict[str, int] = {r.name: 0 for r in self.rules}
        self._latched: dict[str, bool] = {r.name: False for r in self.rules}
        self.fired: list[Alert] = []
        self.evaluations = 0

    @property
    def active(self) -> list[str]:
        """Names of rules currently latched (fired and not yet cleared)."""
        return [name for name, on in self._latched.items() if on]

    def evaluate(self, cycle: int, stats: dict[str, float]) -> list[Alert]:
        """One evaluation round; returns only the *newly* fired alerts."""
        self.evaluations += 1
        new: list[Alert] = []
        for rule in self.rules:
            value = float(stats.get(rule.metric, math.nan))
            if rule.holds(value):
                self._streak[rule.name] += 1
                if (
                    self._streak[rule.name] >= rule.sustained
                    and not self._latched[rule.name]
                ):
                    self._latched[rule.name] = True
                    alert = Alert(
                        rule=rule.name, metric=rule.metric, cycle=cycle,
                        value=value, threshold=rule.threshold, op=rule.op,
                        severity=rule.severity,
                    )
                    self.fired.append(alert)
                    new.append(alert)
            else:
                self._streak[rule.name] = 0
                self._latched[rule.name] = False
        return new


@dataclass
class HealthReport(Artifact):
    """One run's health rollup: series, rules, every alert that fired."""

    kind: str = "filter"
    n_evaluations: int = 0
    series: dict[str, list[float]] = field(default_factory=dict)
    alerts: list[dict] = field(default_factory=list)
    rules: list[dict] = field(default_factory=list)
    #: the newest evaluation's statistics (the "right now" row).
    last: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    schema: str = HEALTH_SCHEMA

    @property
    def alerts_fired(self) -> int:
        return len(self.alerts)


def validate_health_report(payload: dict) -> dict:
    """Check a parsed payload against :data:`HEALTH_SCHEMA`."""
    return validate(payload, HEALTH_SCHEMA)


#: probe statistics recorded as series and published as ``health.*`` gauges.
_PROBE_STATS = (
    "spread_skill",
    "min_spread",
    "rank_deficiency",
    "rmse_growth",
    "innovation_chi2",
    "r_consistency",
)


class HealthProbe:
    """Per-cycle filter-health statistics + alert evaluation.

    Computed from the background/analysis ensembles of one cycle (pure
    reads — the probe never perturbs the assimilation, so bit-identity
    contracts are untouched):

    ``spread_skill``
        ensemble spread over analysis RMSE (1 ≈ well calibrated,
        ≪ 1 ≈ collapsing, ≫ 1 ≈ overdispersed);
    ``min_spread``
        smallest per-variable ensemble standard deviation (absolute
        floor under the collapse ratio);
    ``rank_deficiency``
        ``(N − 1) − rank`` of the analysis anomaly matrix — > 0 means
        the ensemble lost directions;
    ``rmse_growth``
        analysis RMSE over the best (smallest) analysis RMSE seen so
        far — the divergence ratio;
    ``innovation_chi2``
        Desroziers innovation-consistency ratio
        ``⟨d_b²⟩ / (ĤB̂Hᵀ + R)`` (χ²-style, 1 = consistent);
    ``r_consistency``
        Desroziers ``⟨d_a·d_b⟩ / R`` (1 = the assumed observation error
        is what the system actually sees).

    Each call publishes the stats as ``health.*`` gauges into the
    ambient registry, evaluates the rules and, for newly fired alerts,
    bumps ``health.alerts_fired`` and calls ``on_alert(alerts, stats)``
    — the hook that writes a trace at the moment of failure.
    """

    def __init__(
        self,
        rules: Sequence[AlertRule] | None = None,
        *,
        on_alert: Callable[[list[Alert], dict], None] | None = None,
        history: bool = True,
    ):
        self.engine = AlertEngine(
            default_filter_rules() if rules is None else rules
        )
        self.on_alert = on_alert
        self._keep_history = bool(history)
        self.series: dict[str, list[float]] = {}
        self.last: dict[str, float] = {}
        self._best_rmse = math.inf

    # -- per-cycle observation ------------------------------------------------
    def observe_cycle(
        self,
        cycle: int,
        background: np.ndarray,
        analysis: np.ndarray,
        y: np.ndarray,
        h_operator,
        assumed_r_variance: float,
        *,
        analysis_rmse: float | None = None,
        spread: float | None = None,
    ) -> dict[str, float]:
        """Compute, publish and evaluate one cycle's health statistics.

        ``background``/``analysis`` are the (n, N) ensembles around the
        update; ``analysis_rmse`` needs the hidden truth, so the caller
        (the twin harness) passes it in — outside an OSSE it is NaN and
        the truth-dependent stats go NaN with it (their rules then
        simply never accumulate a streak).
        """
        xa = np.asarray(analysis, dtype=float)
        n, n_members = xa.shape
        member_std = xa.std(axis=1, ddof=1) if n_members > 1 else np.zeros(n)
        if spread is None:
            spread = float(np.sqrt(np.mean(member_std**2)))
        rmse = math.nan if analysis_rmse is None else float(analysis_rmse)

        anomalies = xa - xa.mean(axis=1, keepdims=True)
        rank = int(np.linalg.matrix_rank(anomalies)) if n_members > 1 else 0
        rank_deficiency = float(max(0, min(n, n_members - 1) - rank))

        stats: dict[str, float] = {
            "spread": float(spread),
            "analysis_rmse": rmse,
            "spread_skill": (
                float(spread) / rmse if rmse and not math.isnan(rmse)
                else math.nan
            ),
            "min_spread": float(member_std.min()),
            "rank_deficiency": rank_deficiency,
        }
        if not math.isnan(rmse) and rmse > 0.0:
            self._best_rmse = min(self._best_rmse, rmse)
            stats["rmse_growth"] = rmse / self._best_rmse
        else:
            stats["rmse_growth"] = math.nan
        stats.update(
            self._innovation_stats(
                background, xa, y, h_operator, assumed_r_variance
            )
        )
        self._publish(cycle, stats)
        return stats

    @staticmethod
    def _innovation_stats(
        background, analysis, y, h_operator, assumed_r_variance
    ) -> dict[str, float]:
        if y is None or h_operator is None or assumed_r_variance is None:
            return {"innovation_chi2": math.nan, "r_consistency": math.nan}
        from repro.core.diagnostics import desroziers_diagnostics

        try:
            des = desroziers_diagnostics(
                background, analysis, h_operator, y, assumed_r_variance
            )
        except ValueError:
            return {"innovation_chi2": math.nan, "r_consistency": math.nan}
        return {
            "innovation_chi2": float(des.innovation_consistency_ratio),
            "r_consistency": float(des.r_consistency_ratio),
        }

    def observe_stats(self, cycle: int, stats: dict[str, float]) -> list[Alert]:
        """Evaluate caller-computed statistics (the non-ensemble path:
        the caller has the numbers, not the ensembles); publishes and
        alerts the same way :meth:`observe_cycle` does."""
        return self._publish(cycle, dict(stats))

    def _publish(self, cycle: int, stats: dict[str, float]) -> list[Alert]:
        self.last = stats
        if self._keep_history:
            for name, value in stats.items():
                self.series.setdefault(name, []).append(
                    None if math.isnan(value) else float(value)
                )
        publish = get_tracer().enabled
        if publish:
            metrics = get_metrics()
            for name, value in stats.items():
                if not math.isnan(value):
                    metrics.gauge(f"health.{name}").set(value)
        new = self.engine.evaluate(cycle, stats)
        if new:
            metrics = get_metrics()
            metrics.counter("health.alerts_fired").inc(len(new))
            tracer = get_tracer()
            if tracer.enabled:
                for alert in new:
                    tracer.event(
                        "health.alert", category="health",
                        rule=alert.rule, severity=alert.severity,
                        value=alert.value, cycle=alert.cycle,
                    )
            if self.on_alert is not None:
                self.on_alert(new, stats)
        if publish:
            get_metrics().gauge("health.alerts_active").set(
                len(self.engine.active)
            )
        return new

    # -- rollup ---------------------------------------------------------------
    @property
    def alerts_fired(self) -> int:
        return len(self.engine.fired)

    def report(
        self, kind: str = "filter", notes: Sequence[str] = ()
    ) -> HealthReport:
        """Roll the probe's history into a validated :class:`HealthReport`."""
        return HealthReport(
            kind=kind,
            n_evaluations=self.engine.evaluations,
            series={k: list(v) for k, v in sorted(self.series.items())},
            alerts=[a.to_dict() for a in self.engine.fired],
            rules=[r.to_dict() for r in self.engine.rules],
            last={
                k: (None if math.isnan(v) else float(v))
                for k, v in sorted(self.last.items())
            },
            notes=list(notes),
        )


def render_health(health: "HealthReport | dict", title: str = "health") -> str:
    """ASCII panel: the newest stats row, rule table and fired alerts.

    ``health`` is a :class:`HealthReport` or its dict payload (e.g. the
    ``health`` section of a run report).  Rules currently violated by
    the last row are flagged ``!!`` so the panel reads at a glance.
    """
    payload = health.to_dict() if isinstance(health, HealthReport) else health
    alerts = payload.get("alerts") or []
    status = f"{len(alerts)} alert(s) fired" if alerts else "no alerts"
    lines = [
        f"{title} — {payload.get('kind', '?')}, "
        f"{payload.get('n_evaluations', 0)} evaluation(s), {status}"
    ]
    last = payload.get("last") or {}
    if last:
        width = max(len(k) for k in last)
        for name in sorted(last):
            value = last[name]
            text = "-" if value is None else f"{value:.4g}"
            lines.append(f"  {name.ljust(width)}  {text}")
    rules = payload.get("rules") or []
    if rules:
        lines.append("  rules:")
        for rule in rules:
            value = last.get(rule["metric"])
            violated = value is not None and _OPS[rule["op"]](
                float(value), float(rule["threshold"])
            )
            lines.append(
                f"    {rule['name']}: {rule['metric']} {rule['op']} "
                f"{rule['threshold']:g} for {rule['sustained']} cycle(s) "
                f"[{rule['severity']}]"
                + ("  !! violated now" if violated else "")
            )
    for alert in alerts[:8]:
        lines.append(
            f"  ALERT {alert['severity']}: {alert['rule']} at cycle "
            f"{alert['cycle']} ({alert['metric']}={alert['value']:.4g} "
            f"{alert['op']} {alert['threshold']:g})"
        )
    if len(alerts) > 8:
        lines.append(f"  ... {len(alerts) - 8} more alerts")
    return "\n".join(lines)
