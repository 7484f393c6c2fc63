"""Versioned service reports: one JSON artifact per serving session.

A :class:`ServiceReport` is to the service what a
:class:`~repro.telemetry.report.RunReport` is to one campaign: the
durable, schema-validated rollup.  Per tenant it records billing-grade
attribution — predicted vs. actual slot-seconds (the cost model's
admission price against the measured spend), queue wait, preemption and
restart counts, job outcomes — and globally the slot budget, the
queue-wait / slot-utilization histograms (with
:meth:`~repro.telemetry.metrics.Histogram.percentiles`) and the phase
totals aggregated from every job-scoped tracer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.telemetry.schema import SERVICE_REPORT_SCHEMA, Artifact, validate

__all__ = [
    "SERVICE_REPORT_SCHEMA",
    "ServiceReport",
    "TenantUsage",
    "render_service_report",
    "validate_service_report",
]


@dataclass
class TenantUsage:
    """One tenant's rollup: the billing row."""

    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    preemptions: int = 0
    restarts: int = 0
    predicted_slot_seconds: float = 0.0
    actual_slot_seconds: float = 0.0
    queue_wait_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ServiceReport(Artifact):
    """One serving session's rollup (see module docstring)."""

    kind: str = "assimilation-service"
    total_slots: int = 0
    wall_seconds: float = 0.0
    #: per-job status snapshots (:meth:`repro.service.job.Job.snapshot`).
    jobs: list[dict] = field(default_factory=list)
    #: tenant -> :class:`TenantUsage` payload.
    tenants: dict[str, dict] = field(default_factory=dict)
    #: the service metrics registry's snapshot (queue-wait and
    #: slot-utilization histograms live here, percentiles included).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: per-category seconds aggregated across every job-scoped tracer.
    phase_totals: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: optional service-health rollup (a
    #: :class:`~repro.telemetry.health.HealthReport` payload); validated
    #: against the ``senkf-health/1`` schema when present.
    health: dict | None = None
    schema: str = SERVICE_REPORT_SCHEMA


def validate_service_report(payload: dict) -> dict:
    """Check a parsed payload against :data:`SERVICE_REPORT_SCHEMA`."""
    return validate(payload, SERVICE_REPORT_SCHEMA)


def render_service_report(report: "ServiceReport | dict") -> str:
    """ASCII dashboard: tenant billing table + service-health percentiles.

    The health panel renders the ``service.*`` histograms of the
    embedded metrics snapshot through
    :func:`repro.telemetry.ascii.render_histograms` — queue wait and
    slot utilization are inspectable offline from the report alone.
    """
    from repro.telemetry.ascii import render_histograms

    payload = report.to_dict() if isinstance(report, ServiceReport) else report
    lines = [
        f"assimilation service — {payload['total_slots']} slot(s), "
        f"{len(payload['jobs'])} job(s), "
        f"{payload['wall_seconds']:.3f}s wall",
        f"  {'tenant':<12} {'jobs':>5} {'done':>5} {'fail':>5} {'canc':>5} "
        f"{'preempt':>8} {'restart':>8} {'wait (s)':>9} "
        f"{'pred (ss)':>10} {'actual (ss)':>11}",
    ]
    for tenant in sorted(payload["tenants"]):
        usage = payload["tenants"][tenant]
        lines.append(
            f"  {tenant:<12} {usage['submitted']:>5} {usage['done']:>5} "
            f"{usage['failed']:>5} {usage['cancelled']:>5} "
            f"{usage['preemptions']:>8} {usage['restarts']:>8} "
            f"{usage['queue_wait_seconds']:>9.3f} "
            f"{usage['predicted_slot_seconds']:>10.3f} "
            f"{usage['actual_slot_seconds']:>11.3f}"
        )
    histograms = (payload.get("metrics") or {}).get("histograms") or {}
    service_names = [n for n in sorted(histograms) if n.startswith("service.")]
    if service_names:
        lines.append("")
        lines.append(
            render_histograms(
                payload["metrics"],
                names=service_names,
                title="service health (histogram percentiles)",
            )
        )
    health = payload.get("health")
    if health is not None:
        from repro.telemetry.health import render_health

        lines.append("")
        lines.append(render_health(health, title="service health"))
    notes = payload.get("notes") or []
    for note in notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
