"""Predicted-vs-measured cost attribution: where the model meets the spans.

The cost model (:mod:`repro.costmodel`, Eqs. 7–10) prices a machine; the
telemetry layer measures one.  This module closes the loop: it joins a
traced run's spans (and metrics snapshot) against the model's predicted
``T_read``/``T_comm``/``T_comp`` — per phase and per cycle — and produces
a versioned :class:`AttributionReport` with absolute/relative errors, the
fault-retry spend broken out, percentile summaries from any captured
histograms, and drift flags wherever prediction and measurement disagree
beyond a threshold.

The measured side can come from two equivalent sources:

* a :class:`~repro.filters.base.SimReport` (per-rank phase means straight
  off the simulated timeline) via :func:`cycle_from_sim_report`;
* a flat span list — e.g. a Chrome-trace re-import or a
  :func:`~repro.telemetry.chrome.spans_from_timeline` conversion — via
  :func:`cycle_from_spans`, which recovers the same per-rank means from
  span tracks.

Predictions use whatever :class:`~repro.costmodel.model.CostParams` the
caller supplies — nominal constants show how honest Table 1 is, constants
fitted by :func:`~repro.costmodel.calibrate.fit_constants` show how well
the *closed form* tracks the machine once the constants are observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.costmodel.model import CostParams, t_comm, t_comp, t_read, t_total
from repro.sim.trace import (
    PHASE_COMM,
    PHASE_COMPUTE,
    PHASE_FAILED,
    PHASE_READ,
    PHASE_RETRY,
)
from repro.telemetry.schema import (
    ATTRIBUTION_SCHEMA,
    MODEL_PHASES,
    dump_json,
    validate,
    write_report,
)
from repro.telemetry.tracer import Span

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "AttributionReport",
    "CycleAttribution",
    "MemoryAttribution",
    "PhaseAttribution",
    "attribute_sim_reports",
    "cycle_from_sim_report",
    "cycle_from_spans",
    "validate_attribution_report",
]


@dataclass(frozen=True)
class PhaseAttribution:
    """One phase's predicted vs measured seconds (per-rank, whole cycle)."""

    phase: str
    predicted: float
    measured: float

    @property
    def abs_error(self) -> float:
        return self.predicted - self.measured

    @property
    def rel_error(self) -> float:
        """Signed relative error vs the measurement (inf when measured=0)."""
        if self.measured > 0.0:
            return self.abs_error / self.measured
        return math.inf if self.predicted > 0.0 else 0.0

    def to_dict(self) -> dict:
        rel = self.rel_error
        return {
            "phase": self.phase,
            "predicted": self.predicted,
            "measured": self.measured,
            "abs_error": self.abs_error,
            "rel_error": rel if math.isfinite(rel) else None,
        }


@dataclass(frozen=True)
class MemoryAttribution:
    """One predicted-vs-measured *bytes* row (the footprint join).

    Same error conventions as :class:`PhaseAttribution` — signed
    relative error against the measurement, infinite when predicting
    bytes that were never measured — so the memory dashboard reads
    exactly like the time one.  Built by
    :func:`repro.telemetry.memprof.footprint_attribution`.
    """

    label: str
    predicted_bytes: float
    measured_bytes: float

    @property
    def abs_error(self) -> float:
        return self.predicted_bytes - self.measured_bytes

    @property
    def rel_error(self) -> float:
        if self.measured_bytes > 0.0:
            return self.abs_error / self.measured_bytes
        return math.inf if self.predicted_bytes > 0.0 else 0.0

    def drift_flag(self, threshold: float = 0.15) -> str | None:
        """The drift message for this row, or None when within budget."""
        rel = self.rel_error
        if not math.isfinite(rel):
            return (
                f"{self.label}: predicted {self.predicted_bytes:.4g}B "
                f"but nothing measured"
            )
        if abs(rel) > threshold:
            return (
                f"{self.label}: predicted {self.predicted_bytes:.4g}B vs "
                f"measured {self.measured_bytes:.4g}B ({rel:+.1%})"
            )
        return None

    def to_dict(self) -> dict:
        rel = self.rel_error
        return {
            "label": self.label,
            "predicted_bytes": self.predicted_bytes,
            "measured_bytes": self.measured_bytes,
            "abs_error": self.abs_error,
            "rel_error": rel if math.isfinite(rel) else None,
        }


@dataclass(frozen=True)
class CycleAttribution:
    """One assimilation cycle's attribution rows plus its retry spend."""

    cycle: int
    config: dict
    phases: tuple[PhaseAttribution, ...]
    #: measured per-I/O-rank mean seconds lost to failed attempts/backoff
    retry_seconds: float = 0.0
    #: measured makespan of the cycle (seconds)
    makespan: float = 0.0
    #: the model's full-cycle price (Eq. 10) under the same params
    predicted_total: float = 0.0

    def phase(self, name: str) -> PhaseAttribution:
        for entry in self.phases:
            if entry.phase == name:
                return entry
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "config": dict(self.config),
            "phases": [p.to_dict() for p in self.phases],
            "retry_seconds": self.retry_seconds,
            "makespan": self.makespan,
            "predicted_total": self.predicted_total,
        }


def _mean_track_seconds(
    spans: Sequence[Span], tracks: set[str], names: set[str]
) -> float:
    """Mean summed duration of matching spans per track (0 if no tracks)."""
    if not tracks:
        return 0.0
    per_track = {t: 0.0 for t in tracks}
    for span in spans:
        if span.track in per_track and span.name in names:
            per_track[span.track] += span.duration
    return sum(per_track.values()) / len(per_track)


def _predicted_phases(
    params: CostParams, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int
) -> dict[str, float]:
    """Whole-cycle per-rank predictions: L stages of Eqs. (7)–(9)."""
    return {
        "read": n_layers * t_read(params, n_sdy=n_sdy, n_layers=n_layers, n_cg=n_cg),
        "comm": n_layers
        * t_comm(params, n_sdx=n_sdx, n_sdy=n_sdy, n_layers=n_layers, n_cg=n_cg),
        "comp": n_layers * t_comp(params, n_sdx=n_sdx, n_sdy=n_sdy, n_layers=n_layers),
    }


def _build_cycle(
    cycle: int,
    params: CostParams,
    n_sdx: int,
    n_sdy: int,
    n_layers: int,
    n_cg: int,
    measured: dict[str, float],
    retry_seconds: float,
    makespan: float,
) -> CycleAttribution:
    predicted = _predicted_phases(params, n_sdx, n_sdy, n_layers, n_cg)
    phases = tuple(
        PhaseAttribution(
            phase=name,
            predicted=predicted[name],
            measured=measured.get(name, 0.0),
        )
        for name in MODEL_PHASES
    )
    return CycleAttribution(
        cycle=cycle,
        config={
            "n_sdx": n_sdx, "n_sdy": n_sdy,
            "n_layers": n_layers, "n_cg": n_cg,
        },
        phases=phases,
        retry_seconds=retry_seconds,
        makespan=makespan,
        predicted_total=t_total(
            params, n_sdx=n_sdx, n_sdy=n_sdy, n_layers=n_layers, n_cg=n_cg
        ),
    )


def cycle_from_sim_report(
    report, params: CostParams, cycle: int = 0
) -> CycleAttribution:
    """Attribute one simulated run (= one assimilation cycle).

    ``report`` is duck-typed (:class:`~repro.filters.base.SimReport`):
    importing the filters package here would be circular.
    """
    io_means = report.mean_phase_times("io")
    compute_means = report.mean_phase_times("compute")
    measured = {
        "read": io_means.get(PHASE_READ, 0.0),
        "comm": io_means.get(PHASE_COMM, 0.0),
        "comp": compute_means.get(PHASE_COMPUTE, 0.0),
    }
    retry = io_means.get(PHASE_RETRY, 0.0) + io_means.get(PHASE_FAILED, 0.0)
    return _build_cycle(
        cycle,
        params,
        n_sdx=report.n_sdx,
        n_sdy=report.n_sdy,
        n_layers=max(1, int(report.n_layers)),
        n_cg=max(1, int(report.n_cg)),
        measured=measured,
        retry_seconds=retry,
        makespan=report.total_time,
    )


def cycle_from_spans(
    spans: Sequence[Span],
    params: CostParams,
    n_sdx: int,
    n_sdy: int,
    n_layers: int,
    n_cg: int,
    io_tracks: Iterable[str],
    compute_tracks: Iterable[str],
    cycle: int = 0,
) -> CycleAttribution:
    """Attribute one cycle from a flat span list (tracer or trace re-import).

    ``io_tracks``/``compute_tracks`` name the span tracks of the two rank
    sides — for :func:`~repro.telemetry.chrome.spans_from_timeline`
    output these are ``"rank <r>"`` strings.
    """
    io = set(io_tracks)
    compute = set(compute_tracks)
    measured = {
        "read": _mean_track_seconds(spans, io, {PHASE_READ}),
        "comm": _mean_track_seconds(spans, io, {PHASE_COMM}),
        "comp": _mean_track_seconds(spans, compute, {PHASE_COMPUTE}),
    }
    retry = _mean_track_seconds(spans, io, {PHASE_RETRY, PHASE_FAILED})
    relevant = [s for s in spans if s.track in io | compute]
    makespan = (
        max(s.end for s in relevant) - min(s.start for s in relevant)
        if relevant
        else 0.0
    )
    return _build_cycle(
        cycle, params, n_sdx, n_sdy, n_layers, n_cg,
        measured=measured, retry_seconds=retry, makespan=makespan,
    )


def _percentile_summaries(metrics: dict) -> dict[str, dict[str, float]]:
    """Pull per-histogram percentile rows out of a metrics snapshot."""
    out: dict[str, dict[str, float]] = {}
    for name, entry in (metrics.get("histograms") or {}).items():
        percentiles = entry.get("percentiles")
        if percentiles:
            out[name] = dict(percentiles)
    return out


@dataclass
class AttributionReport:
    """Versioned predicted-vs-measured join of one traced campaign."""

    cycles: list[CycleAttribution]
    #: constants used for the predictions (a, b, c, theta, read_inflation)
    constants: dict = field(default_factory=dict)
    #: residual diagnostics of the fit that produced them (when fitted)
    fit: dict = field(default_factory=dict)
    #: metrics snapshot of the capture (histogram percentiles surface here)
    metrics: dict = field(default_factory=dict)
    #: |rel error| above which a phase is flagged as drifting
    threshold: float = 0.15
    notes: list[str] = field(default_factory=list)
    schema: str = ATTRIBUTION_SCHEMA

    # -- aggregations --------------------------------------------------------
    def aggregate(self) -> tuple[PhaseAttribution, ...]:
        """Across-cycle sums per phase (the headline dashboard rows)."""
        return tuple(
            PhaseAttribution(
                phase=name,
                predicted=sum(c.phase(name).predicted for c in self.cycles),
                measured=sum(c.phase(name).measured for c in self.cycles),
            )
            for name in MODEL_PHASES
        )

    @property
    def retry_seconds(self) -> float:
        return sum(c.retry_seconds for c in self.cycles)

    def drift_flags(self) -> list[str]:
        """Human-readable flags for every phase outside the threshold."""
        flags = []
        for c in self.cycles:
            for p in c.phases:
                rel = p.rel_error
                if math.isfinite(rel) and abs(rel) > self.threshold:
                    flags.append(
                        f"cycle {c.cycle} {p.phase}: predicted {p.predicted:.4g}s "
                        f"vs measured {p.measured:.4g}s ({rel:+.1%})"
                    )
                elif not math.isfinite(rel):
                    flags.append(
                        f"cycle {c.cycle} {p.phase}: predicted {p.predicted:.4g}s "
                        f"but nothing measured"
                    )
        return flags

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "threshold": self.threshold,
            "constants": dict(self.constants),
            "fit": dict(self.fit),
            "cycles": [c.to_dict() for c in self.cycles],
            "aggregate": [p.to_dict() for p in self.aggregate()],
            "retry_seconds": self.retry_seconds,
            "drift_flags": self.drift_flags(),
            "metrics": dict(self.metrics),
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return dump_json(self.to_dict(), indent)

    def write(self, path: str | Path) -> Path:
        """Validate and write the report; invalid reports never hit disk."""
        return write_report(self.to_dict(), path, ATTRIBUTION_SCHEMA)

    # -- rendering -----------------------------------------------------------
    def ascii_table(self, width: int = 72) -> str:
        """The doctor dashboard: constants, per-phase/per-cycle rows, flags."""
        lines = [
            f"attribution — predicted vs measured over "
            f"{len(self.cycles)} cycle(s)"
        ]
        if self.constants:
            c = self.constants
            lines.append(
                "  constants: "
                + "  ".join(
                    f"{k}={c[k]:.3g}" for k in ("a", "b", "c", "theta")
                    if k in c
                )
                + (
                    f"  read_inflation={c['read_inflation']:.3f}"
                    if "read_inflation" in c
                    else ""
                )
            )
        if self.fit.get("residuals"):
            resid = "  ".join(
                f"{phase}={d['rel_rms']:.1%}"
                for phase, d in sorted(self.fit["residuals"].items())
            )
            lines.append(
                f"  fit residuals (rel rms over "
                f"{self.fit.get('n_observations', '?')} obs): {resid}"
            )
        header = f"  {'phase':<6} {'predicted':>12} {'measured':>12} {'rel err':>9}  flag"
        lines.append(header)
        for p in self.aggregate():
            rel = p.rel_error
            flag = ""
            if not math.isfinite(rel):
                flag, rel_text = "DRIFT", "n/a"
            else:
                rel_text = f"{rel:+.1%}"
                if abs(rel) > self.threshold:
                    flag = "DRIFT"
            lines.append(
                f"  {p.phase:<6} {p.predicted:>11.4g}s {p.measured:>11.4g}s "
                f"{rel_text:>9}  {flag}"
            )
        lines.append(
            f"  retry spend (measured, per-I/O-rank mean): "
            f"{self.retry_seconds:.4g}s"
        )
        if len(self.cycles) > 1:
            lines.append(f"  {'cycle':<6} {'config':<22} "
                         f"{'read':>8} {'comm':>8} {'comp':>8} {'retry':>8}")
            for c in self.cycles:
                cfg = c.config
                cfg_text = (
                    f"{cfg['n_sdx']}x{cfg['n_sdy']} L={cfg['n_layers']} "
                    f"cg={cfg['n_cg']}"
                )
                def _cell(p):
                    rel = p.rel_error
                    return f"{rel:+.0%}" if math.isfinite(rel) else "n/a"
                lines.append(
                    f"  {c.cycle:<6} {cfg_text:<22} "
                    f"{_cell(c.phase('read')):>8} {_cell(c.phase('comm')):>8} "
                    f"{_cell(c.phase('comp')):>8} {c.retry_seconds:>7.3g}s"
                )
        percentiles = _percentile_summaries(self.metrics)
        for name, row in sorted(percentiles.items()):
            cells = "  ".join(
                f"{k}={v:.4g}" for k, v in sorted(row.items())
            )
            lines.append(f"  {name}: {cells}")
        flags = self.drift_flags()
        if flags:
            lines.append("  drift flags:")
            lines.extend(f"    ! {flag}" for flag in flags)
        else:
            lines.append(
                f"  no drift: every phase within ±{self.threshold:.0%} "
                f"of its prediction"
            )
        if self.notes:
            lines.append("  notes:")
            lines.extend(f"    - {note}" for note in self.notes)
        return "\n".join(lines)


def attribute_sim_reports(
    reports,
    params: CostParams,
    fit=None,
    metrics: dict | None = None,
    threshold: float = 0.15,
    notes: Sequence[str] = (),
) -> AttributionReport:
    """Build the report for a sequence of simulated cycles.

    ``params`` prices the predictions (pass ``fit.params`` to use fitted
    constants and the fit's residual diagnostics ride along via ``fit``);
    ``metrics`` is an optional registry snapshot whose histogram
    percentiles surface on the dashboard.
    """
    cycles = [
        cycle_from_sim_report(report, params, cycle=k)
        for k, report in enumerate(reports)
    ]
    constants = {
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "theta": params.theta,
        "read_inflation": params.read_inflation,
    }
    return AttributionReport(
        cycles=cycles,
        constants=constants,
        fit=fit.summary() if fit is not None else {},
        metrics=dict(metrics or {}),
        threshold=threshold,
        notes=list(notes),
    )


def validate_attribution_report(payload: dict) -> dict:
    """Check a parsed payload against :data:`ATTRIBUTION_SCHEMA`."""
    return validate(payload, ATTRIBUTION_SCHEMA)
