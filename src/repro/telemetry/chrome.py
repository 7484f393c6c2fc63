"""Chrome trace-event JSON export (open in Perfetto / ``chrome://tracing``).

One exporter serves both telemetry sources through a shared adapter:

* real-path :class:`~repro.telemetry.tracer.Span`/``TraceEvent`` captures
  from a :class:`~repro.telemetry.tracer.Tracer`;
* simulated :class:`~repro.sim.trace.PhaseRecord` timelines, converted by
  :func:`spans_from_timeline` (one track per simulated rank).

The output follows the Trace Event Format: complete events (``ph: "X"``)
with microsecond ``ts``/``dur``, instant events (``ph: "i"``), and
``M``-phase metadata naming each track.  Span ids and parent ids travel
in ``args`` so :func:`spans_from_chrome` can rebuild the exact span tree
— the round-trip the tests pin down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.sim.trace import Timeline
from repro.telemetry.schema import dump_json
from repro.telemetry.tracer import Span, TraceEvent, Tracer

__all__ = [
    "chrome_trace",
    "spans_from_chrome",
    "spans_from_timeline",
    "write_chrome_trace",
]

_US = 1e6  # seconds -> microseconds

#: pid assigned to real-path spans and to simulated-rank tracks.
REAL_PID = 0
SIM_PID = 1


def spans_from_timeline(
    timeline: Timeline, id_offset: int = 0, track_prefix: str = "rank"
) -> list[Span]:
    """Adapt simulated :class:`PhaseRecord` intervals to flat spans.

    Each simulated rank becomes one track (``rank 0``, ``rank 1``, ...);
    records have no nesting, so every span is a root.  ``id_offset``
    keeps ids disjoint from a real tracer's spans when both land in one
    trace file.
    """
    spans = []
    for i, record in enumerate(
        sorted(timeline.records, key=lambda r: (r.rank, r.start, r.end))
    ):
        spans.append(
            Span(
                name=record.phase,
                category="sim",
                start=record.start,
                end=record.end,
                span_id=id_offset + i + 1,
                parent_id=None,
                track=f"{track_prefix} {record.rank}",
            )
        )
    return spans


def _track_ids(spans: Iterable[Span], events: Iterable[TraceEvent]) -> dict[str, int]:
    tracks: dict[str, int] = {}
    for item in list(spans) + list(events):
        if item.track not in tracks:
            tracks[item.track] = len(tracks)
    return tracks


def chrome_trace(
    spans: Sequence[Span] = (),
    events: Sequence[TraceEvent] = (),
    timeline: Timeline | None = None,
    metadata: dict | None = None,
) -> dict:
    """Build the trace-event payload for real spans and/or a simulated timeline.

    Real-path spans get ``pid`` :data:`REAL_PID`; simulated ranks get
    ``pid`` :data:`SIM_PID` so the two paths render as separate process
    groups in the viewer.  All timestamps are normalised so the earliest
    item sits at ``ts = 0``.
    """
    spans = list(spans)
    events = list(events)
    sim_spans: list[Span] = []
    if timeline is not None:
        offset = max((s.span_id for s in spans), default=0)
        sim_spans = spans_from_timeline(timeline, id_offset=offset)

    starts = (
        [s.start for s in spans]
        + [e.ts for e in events]
        + [s.start for s in sim_spans]
    )
    t0 = min(starts, default=0.0)

    trace_events: list[dict] = []
    for pid, group, group_events in (
        (REAL_PID, spans, events),
        (SIM_PID, sim_spans, []),
    ):
        tracks = _track_ids(group, group_events)
        for track, tid in tracks.items():
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        for span in group:
            args = {"span_id": span.span_id}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attrs)
            trace_events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.category,
                    "ts": (span.start - t0) * _US,
                    "dur": span.duration * _US,
                    "pid": pid,
                    "tid": tracks[span.track],
                    "args": args,
                }
            )
        for event in group_events:
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": event.name,
                    "cat": event.category,
                    "ts": (event.ts - t0) * _US,
                    "pid": pid,
                    "tid": tracks[event.track],
                    "args": dict(event.attrs),
                }
            )

    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}),
    }
    return payload


def write_chrome_trace(
    path: str | Path,
    spans: Sequence[Span] = (),
    events: Sequence[TraceEvent] = (),
    timeline: Timeline | None = None,
    tracer: Tracer | None = None,
    metadata: dict | None = None,
) -> Path:
    """Write one trace file; ``tracer=`` is shorthand for its spans+events."""
    if tracer is not None:
        spans = list(spans) + list(tracer.spans)
        events = list(events) + list(tracer.events)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = chrome_trace(
        spans=spans, events=events, timeline=timeline, metadata=metadata
    )
    path.write_text(dump_json(payload, indent=None))
    return path


def spans_from_chrome(payload: dict | str | Path) -> list[Span]:
    """Rebuild :class:`Span` objects from an exported trace.

    Accepts the payload dict, a JSON string, or a file path.  Only
    complete (``X``) events are considered; track names are restored
    from the ``thread_name`` metadata.  Together with
    :func:`chrome_trace` this round-trips the span tree exactly (ids,
    parents, names, categories) and timestamps to sub-microsecond.
    """
    if isinstance(payload, Path):
        payload = json.loads(payload.read_text())
    elif isinstance(payload, str):
        stripped = payload.lstrip()
        payload = json.loads(
            payload if stripped.startswith("{") else Path(payload).read_text()
        )
    track_names: dict[tuple[int, int], str] = {}
    for event in payload["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            track_names[(event["pid"], event["tid"])] = event["args"]["name"]
    spans = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start = event["ts"] / _US
        spans.append(
            Span(
                name=event["name"],
                category=event.get("cat", "default"),
                start=start,
                end=start + event.get("dur", 0.0) / _US,
                span_id=int(span_id) if span_id is not None else 0,
                parent_id=int(parent_id) if parent_id is not None else None,
                track=track_names.get(
                    (event.get("pid", 0), event.get("tid", 0)), "main"
                ),
                attrs=args,
            )
        )
    return spans
