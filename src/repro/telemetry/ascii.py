"""Terminal rendering of telemetry captures.

Reuses the dependency-free chart primitives of
:mod:`repro.experiments.asciiplot`: span trees render as a Gantt
timeline (depth shown by indentation), phase totals as a bar chart —
the quick-look companions to the Chrome trace export.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.trace import Timeline
from repro.telemetry.chrome import spans_from_timeline
from repro.telemetry.tracer import Span, Tracer

# NOTE: repro.experiments.asciiplot is imported inside the render
# functions: the experiments package pulls in repro.filters, which
# reaches back here through the instrumented I/O layer — an eager
# import would make `import repro.filters` circular.

__all__ = [
    "render_phase_totals",
    "render_spans",
    "render_supervision",
    "render_timeline",
]


def _tree_rows(
    spans: Sequence[Span], max_rows: int
) -> list[tuple[str, float, float]]:
    children: dict[int | None, list[Span]] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        children.setdefault(span.parent_id, []).append(span)
    span_ids = {s.span_id for s in spans}
    roots = [
        s
        for parent, group in children.items()
        if parent is None or parent not in span_ids
        for s in group
    ]
    roots.sort(key=lambda s: (s.start, s.span_id))

    rows: list[tuple[str, float, float]] = []

    def walk(span: Span, depth: int) -> None:
        if len(rows) >= max_rows:
            return
        rows.append(("  " * depth + span.name, span.start, span.end))
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return rows


def render_spans(
    spans: Sequence[Span],
    width: int = 60,
    title: str = "trace",
    max_rows: int = 40,
) -> str:
    """Gantt view of a span tree (indentation = nesting depth).

    Only the first ``max_rows`` rows (depth-first, by start time) are
    drawn; a truncation note names how many spans were dropped so a
    dense capture is never silently misread as a complete picture.
    """
    from repro.experiments.asciiplot import gantt_chart

    if not spans:
        return f"{title}: (no spans)"
    rows = _tree_rows(spans, max_rows)
    chart = gantt_chart(rows, width=width, title=title)
    hidden = len(spans) - len(rows)
    if hidden > 0:
        chart += f"\n... {hidden} more spans not shown"
    return chart


def render_timeline(
    timeline: Timeline, width: int = 60, title: str = "simulated timeline"
) -> str:
    """Gantt view of simulated phase records (one row per interval)."""
    return render_spans(
        spans_from_timeline(timeline), width=width, title=title
    )


def render_supervision(
    supervision: dict,
    threshold: float = 0.15,
    title: str = "supervision",
) -> str:
    """Text panel for a supervised campaign's recovery rollup.

    ``supervision`` is a
    :meth:`~repro.checkpoint.runner.SupervisionReport.to_dict` payload
    (e.g. the ``supervision`` field of a run report).  The panel is
    flagged with ``!!`` when the recovery fraction — restart backoff
    relative to total wall time — exceeds ``threshold`` (default 15%):
    at that point recovery is no longer noise and the fault regime or
    the budgets deserve a look.
    """
    fraction = float(supervision.get("recovery_fraction", 0.0))
    flagged = fraction > threshold
    rows = [
        ("campaign restarts",
         f"{supervision.get('restarts', 0)}"
         f" / {supervision.get('max_restarts', 0)} budget"),
        ("restart backoff seconds",
         f"{supervision.get('backoff_seconds', 0.0):.3f}"),
        ("recovery fraction",
         f"{100.0 * fraction:.1f}% of {supervision.get('wall_seconds', 0.0):.3f}s"
         + (f"  !! above {100.0 * threshold:.0f}% threshold" if flagged else "")),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [title + ("  [!! recovery-heavy]" if flagged else "")]
    lines += [f"  {label.ljust(width)}  {value}" for label, value in rows]
    errors = supervision.get("restart_errors") or []
    for err in errors[:5]:
        lines.append(f"  restart cause: {err}")
    if len(errors) > 5:
        lines.append(f"  ... {len(errors) - 5} more restart causes")
    return "\n".join(lines)


def render_phase_totals(
    tracer: Tracer, width: int = 50, title: str = "phase totals (s)"
) -> str:
    """Bar chart of the capture's per-category union time."""
    from repro.experiments.asciiplot import bar_chart

    totals = tracer.phase_totals()
    if not totals:
        return f"{title}: (no spans)"
    labels = list(totals)
    return bar_chart(labels, [totals[k] for k in labels], width=width, title=title)
