"""Versioned run reports: one JSON artifact summarising one run.

A :class:`RunReport` is the durable record of a
:class:`~repro.models.twin.TwinExperiment` or
:class:`~repro.checkpoint.runner.CampaignRunner` drive: configuration and
seeds, fault accounting, per-category phase totals, the metrics snapshot
and the per-cycle diagnostic series.  The schema is versioned
(:data:`RUN_REPORT_SCHEMA`) and :func:`validate_run_report` checks a
parsed payload against it — CI runs that validation on every traced
smoke run so the artifact contract can't drift silently.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["RUN_REPORT_SCHEMA", "RunReport", "validate_run_report"]

RUN_REPORT_SCHEMA = "senkf-run-report/1"

#: required top-level keys and the types a valid payload binds them to.
_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "kind": str,
    "config": dict,
    "seeds": dict,
    "n_cycles": int,
    "fault_counts": dict,
    "phase_totals": dict,
    "metrics": dict,
    "diagnostics": dict,
    "notes": list,
}


@dataclass
class RunReport:
    """One run's telemetry rollup (see module docstring)."""

    kind: str
    config: dict[str, Any] = field(default_factory=dict)
    seeds: dict[str, Any] = field(default_factory=dict)
    n_cycles: int = 0
    fault_counts: dict[str, float] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    diagnostics: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: optional predicted-vs-measured join (an
    #: :class:`~repro.telemetry.attribution.AttributionReport` payload);
    #: validated against the attribution schema when present.
    attribution: dict | None = None
    #: optional recovery accounting (a
    #: :class:`~repro.checkpoint.runner.SupervisionReport` payload) from
    #: a supervised campaign; must be an object when present.
    supervision: dict | None = None
    #: optional health rollup (a
    #: :class:`~repro.telemetry.health.HealthReport` payload); validated
    #: against the ``senkf-health/1`` schema when present.
    health: dict | None = None
    #: optional resource-observatory slice (a ``senkf-profile/1``
    #: payload from :func:`~repro.telemetry.memprof.build_profile_report`);
    #: validated against that schema when present.
    profile: dict | None = None
    schema: str = RUN_REPORT_SCHEMA

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=_coerce)

    def write(self, path: str | Path) -> Path:
        """Validate and write the report; invalid reports never hit disk."""
        payload = json.loads(self.to_json())
        validate_run_report(payload)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2))
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        validate_run_report(payload)
        return cls(
            **{k: payload[k] for k in _REQUIRED},
            attribution=payload.get("attribution"),
            supervision=payload.get("supervision"),
            health=payload.get("health"),
            profile=payload.get("profile"),
        )


def _coerce(value):
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist"):  # numpy array
        return value.tolist()
    return str(value)


def validate_run_report(payload: dict) -> dict:
    """Check one parsed payload against the run-report schema.

    Returns the payload on success; raises ``ValueError`` naming every
    violation at once (missing keys, wrong types, unknown schema id,
    non-numeric phase totals, ragged diagnostic series).
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise ValueError(f"run report must be a JSON object, got {type(payload).__name__}")
    for key, expected in _REQUIRED.items():
        if key not in payload:
            errors.append(f"missing key {key!r}")
        elif not isinstance(payload[key], expected):
            errors.append(
                f"{key!r} must be {getattr(expected, '__name__', expected)}, "
                f"got {type(payload[key]).__name__}"
            )
    if not errors:
        if payload["schema"] != RUN_REPORT_SCHEMA:
            errors.append(
                f"unknown schema {payload['schema']!r} "
                f"(expected {RUN_REPORT_SCHEMA!r})"
            )
        if payload["n_cycles"] < 0:
            errors.append(f"n_cycles must be >= 0, got {payload['n_cycles']}")
        for name, value in payload["phase_totals"].items():
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"phase_totals[{name!r}] must be a non-negative number")
        for name, value in payload["fault_counts"].items():
            if not isinstance(value, (int, float)):
                errors.append(f"fault_counts[{name!r}] must be a number")
        for name, series in payload["diagnostics"].items():
            if not isinstance(series, list) or not all(
                isinstance(v, (int, float)) for v in series
            ):
                errors.append(f"diagnostics[{name!r}] must be a list of numbers")
        for section in ("counters", "gauges", "histograms"):
            metrics = payload["metrics"]
            if metrics and section in metrics and not isinstance(
                metrics[section], dict
            ):
                errors.append(f"metrics[{section!r}] must be an object")
        attribution = payload.get("attribution")
        if attribution is not None:
            from repro.telemetry.attribution import validate_attribution_report

            try:
                validate_attribution_report(attribution)
            except ValueError as exc:
                errors.append(f"attribution: {exc}")
        supervision = payload.get("supervision")
        if supervision is not None and not isinstance(supervision, dict):
            errors.append(
                "supervision must be an object when present, "
                f"got {type(supervision).__name__}"
            )
        health = payload.get("health")
        if health is not None:
            from repro.telemetry.health import validate_health_report

            try:
                validate_health_report(health)
            except ValueError as exc:
                errors.append(f"health: {exc}")
        profile = payload.get("profile")
        if profile is not None:
            from repro.telemetry.memprof import validate_profile_report

            try:
                validate_profile_report(profile)
            except ValueError as exc:
                errors.append(f"profile: {exc}")
    if errors:
        raise ValueError("invalid run report: " + "; ".join(errors))
    return payload
