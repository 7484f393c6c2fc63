"""Per-phase memory attribution.

Time already has a full observation loop — spans, cost-model
attribution, drift flags.  This module gives *bytes* the same loop,
two layers deep:

* :func:`current_rss_bytes` / :func:`peak_rss_bytes` read the process's
  resident set (``/proc/self/statm`` and ``resource.getrusage``) — the
  ground truth every prediction is judged against;
* :class:`MemoryProfiler` wraps a run: baseline RSS at start,
  ``tracemalloc`` current/peak tracking (gracefully degraded to ``None``
  fields when tracemalloc is unavailable), per-phase deltas via
  :meth:`MemoryProfiler.phase`, and per-cycle RSS-growth stats for the
  ``memory_runaway`` alert rule.

The predicted side comes from
:func:`repro.costmodel.model.predicted_footprint_bytes` (ensemble +
staging buffers + geometry cache); :func:`footprint_attribution` joins
it against measured peak RSS as
``predicted = baseline RSS + predicted increment`` with the same 15%
drift convention the time model uses.  Everything rolls up into a
versioned ``senkf-profile/2`` payload
(:func:`build_profile_report` / :func:`validate_profile_report`) that
rides in ``RunReport.profile`` and backs ``doctor --profile``.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:  # pragma: no cover - stdlib, but optional on exotic builds
    import resource
except ImportError:  # pragma: no cover
    resource = None

try:  # pragma: no cover - stdlib, but can be compiled out
    import tracemalloc
except ImportError:  # pragma: no cover
    tracemalloc = None

from repro.telemetry.health import AlertRule
from repro.telemetry.metrics import get_metrics
from repro.telemetry.schema import PROFILE_SCHEMA, validate, write_report

__all__ = [
    "PROFILE_SCHEMA",
    "MemoryProfiler",
    "build_profile_report",
    "current_rss_bytes",
    "default_memory_rules",
    "footprint_attribution",
    "peak_rss_bytes",
    "publish_memory_gauges",
    "validate_profile_report",
    "write_profile_report",
]

#: |relative error| above which predicted vs measured RSS is flagged —
#: the same threshold the time-attribution dashboard uses.
DRIFT_THRESHOLD = 0.15


# -- resident-set readings -----------------------------------------------------
def current_rss_bytes() -> float:
    """Current resident set size in bytes (0.0 where unreadable).

    Reads ``/proc/self/statm`` (Linux); there is no portable stdlib call
    for *current* RSS, and 0.0 keeps callers honest (a missing reading
    is never mistaken for a small one because every consumer guards on
    truthiness).
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return 0.0


def peak_rss_bytes() -> float:
    """High-water resident set size in bytes (0.0 where unreadable).

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux and bytes on
    macOS; normalised here so every consumer sees bytes.
    """
    if resource is None:  # pragma: no cover - exotic build
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform != "darwin":
        peak *= 1024.0
    return peak


# -- run-scoped memory profiler ------------------------------------------------
class MemoryProfiler:
    """Baseline/peak RSS, tracemalloc tracking and per-phase deltas.

    ``start`` captures the baseline (interpreter + imports + caches that
    predate the run); the prediction side of the footprint join adds the
    model's *incremental* bytes on top of this baseline, because on
    small problems the interpreter dwarfs the ensemble and an absolute
    prediction would be meaningless.

    tracemalloc is attempted, never required: when the module is missing
    or refuses to start, the ``tracemalloc`` report fields are ``None``
    and a note records the degradation — RSS accounting still works.
    """

    def __init__(self, use_tracemalloc: bool = True):
        self._want_tracemalloc = bool(use_tracemalloc)
        self.tracemalloc_available = False
        self._started_tracemalloc = False
        self.baseline_rss_bytes = 0.0
        self.tracemalloc_peak_bytes: int | None = None
        self.tracemalloc_current_bytes: int | None = None
        self.phases: dict[str, dict[str, float]] = {}
        self._rss_history: list[float] = []
        self.notes: list[str] = []

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "MemoryProfiler":
        self.baseline_rss_bytes = current_rss_bytes()
        self._rss_history = [self.baseline_rss_bytes]
        if self._want_tracemalloc and tracemalloc is not None:
            try:
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    self._started_tracemalloc = True
                tracemalloc.reset_peak()
                self.tracemalloc_available = True
            except Exception:  # pragma: no cover - platform refusal
                self.notes.append("tracemalloc failed to start; degraded")
        elif self._want_tracemalloc:
            self.notes.append("tracemalloc unavailable; degraded to RSS-only")
        return self

    def stop(self) -> "MemoryProfiler":
        if self.tracemalloc_available and tracemalloc is not None:
            try:
                current, peak = tracemalloc.get_traced_memory()
                self.tracemalloc_current_bytes = int(current)
                self.tracemalloc_peak_bytes = int(peak)
                if self._started_tracemalloc:
                    tracemalloc.stop()
            except Exception:  # pragma: no cover
                pass
            self._started_tracemalloc = False
        return self

    def __enter__(self) -> "MemoryProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # -- per-phase deltas ------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute the tracemalloc/RSS delta of a block to ``name``.

        Repeated phases accumulate, so wrapping each assimilation cycle
        in ``phase("cycle")`` yields the campaign total.
        """
        rss0 = current_rss_bytes()
        tm0 = 0
        tracing = self.tracemalloc_available and tracemalloc is not None
        if tracing:
            tm0 = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            entry = self.phases.setdefault(
                name,
                {"count": 0.0, "rss_delta_bytes": 0.0,
                 "tracemalloc_delta_bytes": 0.0},
            )
            entry["count"] += 1
            entry["rss_delta_bytes"] += current_rss_bytes() - rss0
            if tracing:
                entry["tracemalloc_delta_bytes"] += (
                    tracemalloc.get_traced_memory()[0] - tm0
                )

    # -- alert feed ------------------------------------------------------------
    def observe_cycle(self) -> dict[str, float]:
        """Record one cycle's RSS and return alert-engine stats.

        ``rss_growth_bytes`` is growth over the *previous* cycle, so a
        one-off allocation spikes once and clears, while a true runaway
        sustains — matching the burn-style ``memory_runaway`` rule.
        """
        rss = current_rss_bytes()
        previous = self._rss_history[-1] if self._rss_history else rss
        self._rss_history.append(rss)
        return {
            "rss_bytes": rss,
            "rss_growth_bytes": rss - previous,
        }

    # -- rollup ----------------------------------------------------------------
    def report(self) -> dict:
        """The ``memory`` slice of a ``senkf-profile/2`` payload."""
        return {
            "baseline_rss_bytes": self.baseline_rss_bytes,
            "current_rss_bytes": current_rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "tracemalloc": {
                "available": self.tracemalloc_available,
                "current_bytes": self.tracemalloc_current_bytes,
                "peak_bytes": self.tracemalloc_peak_bytes,
            },
            "phases": {
                name: dict(entry)
                for name, entry in sorted(self.phases.items())
            },
            "notes": list(self.notes),
        }


# -- gauges and alert rules ----------------------------------------------------
def publish_memory_gauges(metrics=None, geometry_cache_bytes: float | None = None,
                          tracemalloc_peak: float | None = None) -> None:
    """Set the resource gauges on ``metrics`` (ambient registry when None).

    Sets ``process.rss_bytes`` and, when given,
    ``tracemalloc.peak_bytes`` and ``geometry.cache_bytes``.
    """
    registry = metrics if metrics is not None else get_metrics()
    registry.gauge("process.rss_bytes").set(current_rss_bytes())
    if tracemalloc_peak is not None:
        registry.gauge("tracemalloc.peak_bytes").set(float(tracemalloc_peak))
    if geometry_cache_bytes is not None:
        registry.gauge("geometry.cache_bytes").set(float(geometry_cache_bytes))


def default_memory_rules(
    growth_bytes: float = 64 * 1024 * 1024, sustained: int = 3
) -> tuple[AlertRule, ...]:
    """The stock memory rules over :meth:`MemoryProfiler.observe_cycle`
    stats: RSS growing ``growth_bytes`` per cycle for ``sustained``
    consecutive cycles is a runaway, not a working set — a healthy
    campaign allocates in cycle 0 and plateaus."""
    return (
        AlertRule("memory_runaway", "rss_growth_bytes", ">",
                  float(growth_bytes), sustained=sustained,
                  severity="critical"),
    )


# -- predicted vs measured footprint -------------------------------------------
def footprint_attribution(
    predicted_increment_bytes: float,
    baseline_rss_bytes: float,
    measured_peak_rss_bytes: float,
    components: dict | None = None,
    threshold: float = DRIFT_THRESHOLD,
) -> dict:
    """Join the cost model's footprint against the measured peak RSS.

    The prediction is ``baseline + increment``: the model prices the
    bytes *this run adds* (ensemble, staging buffers, geometry cache),
    while the measured peak includes the interpreter the run started
    from.  Error conventions come from
    :class:`~repro.telemetry.attribution.MemoryAttribution`, so memory
    drift flags read exactly like the time model's.
    """
    from repro.telemetry.attribution import MemoryAttribution

    row = MemoryAttribution(
        label="peak_rss",
        predicted_bytes=baseline_rss_bytes + predicted_increment_bytes,
        measured_bytes=measured_peak_rss_bytes,
    )
    rel = row.rel_error
    flag = row.drift_flag(threshold)
    flags = [flag] if flag is not None else []
    return {
        "predicted_peak_rss_bytes": row.predicted_bytes,
        "predicted_increment_bytes": predicted_increment_bytes,
        "baseline_rss_bytes": baseline_rss_bytes,
        "measured_peak_rss_bytes": row.measured_bytes,
        "rel_error": rel if math.isfinite(rel) else None,
        "threshold": threshold,
        "drift_flags": flags,
        "components": dict(components or {}),
    }


# -- the versioned profile payload ---------------------------------------------
def build_profile_report(
    sampler: dict | None = None,
    memory: dict | None = None,
    footprint: dict | None = None,
    notes=(),
) -> dict:
    """Assemble a ``senkf-profile/2`` payload from the three slices."""
    return {
        "schema": PROFILE_SCHEMA,
        "sampler": dict(sampler) if sampler else None,
        "memory": dict(memory) if memory else None,
        "footprint": dict(footprint) if footprint else None,
        "notes": list(notes),
    }


def write_profile_report(payload: dict, path: str | Path) -> Path:
    """Validate and write a profile payload; invalid ones never hit disk."""
    return write_report(payload, path, PROFILE_SCHEMA)


def validate_profile_report(payload: dict) -> dict:
    """Check a parsed payload against :data:`PROFILE_SCHEMA`."""
    return validate(payload, PROFILE_SCHEMA)
