"""Versioned run reports: one JSON artifact summarising one run.

A :class:`RunReport` is the durable record of a
:class:`~repro.models.twin.TwinExperiment` or
:class:`~repro.checkpoint.runner.CampaignRunner` drive: configuration and
seeds, fault accounting, per-category phase totals, the metrics snapshot
and the per-cycle diagnostic series.  The schema is versioned
(:data:`RUN_REPORT_SCHEMA`, declared in :mod:`repro.telemetry.schema`) and
:func:`validate_run_report` checks a parsed payload against it — CI runs
that validation on every traced smoke run so the artifact contract can't
drift silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.telemetry.schema import RUN_REPORT_SCHEMA, Artifact, validate

__all__ = ["RUN_REPORT_SCHEMA", "RunReport", "validate_run_report"]


@dataclass
class RunReport(Artifact):
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
    #: optional sections, each validated against its own spec when set:
    #: the predicted-vs-measured join (``senkf-attribution/1``), a
    #: supervised campaign's recovery accounting
    #: (:class:`~repro.checkpoint.runner.SupervisionReport` payload), the
    #: health rollup (``senkf-health/1``) and the resource-observatory
    #: slice (``senkf-profile/2``).
    attribution: dict | None = None
    supervision: dict | None = None
    health: dict | None = None
    profile: dict | None = None
    schema: str = RUN_REPORT_SCHEMA


def validate_run_report(payload: dict) -> dict:
    """Check a parsed payload against :data:`RUN_REPORT_SCHEMA`."""
    return validate(payload, RUN_REPORT_SCHEMA)
