"""Unified telemetry: spans + metrics across the simulated and real paths.

The simulator has always produced :class:`~repro.sim.trace.PhaseRecord`
timelines; this package gives the *real* execution path (ensemble
stores, filters, fault retries, checkpoint commits) the same substrate
and a common export surface:

- :class:`Tracer` / :class:`Span` / :class:`TraceEvent` — nestable
  wall-clock spans and instant events, thread-safe, injectable or
  process-global with a zero-overhead :data:`NULL_TRACER` default;
- :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  with a JSON snapshot;
- :mod:`repro.telemetry.chrome` — Chrome trace-event JSON from real
  spans *and* simulated timelines (open in Perfetto);
- :mod:`repro.telemetry.ascii` — terminal Gantt/bar rendering;
- :class:`RunReport` — the versioned JSON artifact a campaign emits
  (config, seeds, fault counts, phase totals, metrics, diagnostics).

See ``docs/OBSERVABILITY.md`` for the span/metric taxonomy.
"""

from repro.telemetry.ascii import (
    render_phase_totals,
    render_spans,
    render_supervision,
    render_timeline,
)
from repro.telemetry.attribution import (
    ATTRIBUTION_SCHEMA,
    AttributionReport,
    CycleAttribution,
    MemoryAttribution,
    PhaseAttribution,
    attribute_sim_reports,
    cycle_from_sim_report,
    cycle_from_spans,
    validate_attribution_report,
)
from repro.telemetry.chrome import (
    chrome_trace,
    spans_from_chrome,
    spans_from_timeline,
    write_chrome_trace,
)
from repro.telemetry.health import (
    HEALTH_SCHEMA,
    Alert,
    AlertEngine,
    AlertRule,
    HealthProbe,
    HealthReport,
    default_filter_rules,
    render_health,
    validate_health_report,
)
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
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
    percentiles_from_buckets,
    set_metrics,
    use_metrics,
    use_thread_metrics,
)
from repro.telemetry.profiler import (
    NULL_PROFILER,
    NullProfiler,
    SamplingProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.telemetry.report import (
    RUN_REPORT_SCHEMA,
    RunReport,
    validate_run_report,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_thread_tracer,
    use_tracer,
)

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "AttributionReport",
    "Counter",
    "CycleAttribution",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "HEALTH_SCHEMA",
    "HealthProbe",
    "HealthReport",
    "Histogram",
    "MemoryAttribution",
    "MemoryProfiler",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "PROFILE_SCHEMA",
    "PhaseAttribution",
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "SamplingProfiler",
    "Span",
    "TraceEvent",
    "Tracer",
    "attribute_sim_reports",
    "build_profile_report",
    "chrome_trace",
    "current_rss_bytes",
    "cycle_from_sim_report",
    "cycle_from_spans",
    "default_filter_rules",
    "default_memory_rules",
    "footprint_attribution",
    "get_metrics",
    "get_profiler",
    "get_tracer",
    "peak_rss_bytes",
    "percentiles_from_buckets",
    "publish_memory_gauges",
    "render_health",
    "render_phase_totals",
    "render_spans",
    "render_supervision",
    "render_timeline",
    "set_metrics",
    "set_profiler",
    "set_tracer",
    "spans_from_chrome",
    "spans_from_timeline",
    "use_metrics",
    "use_profiler",
    "use_thread_metrics",
    "use_thread_tracer",
    "use_tracer",
    "validate_attribution_report",
    "validate_health_report",
    "validate_profile_report",
    "validate_run_report",
    "write_chrome_trace",
    "write_profile_report",
]
