"""Bounded flight recorder: the tracer a long campaign can afford.

A plain :class:`~repro.telemetry.tracer.Tracer` accumulates every span
forever — right for a 40-cycle traced experiment, fatal for a campaign
that assimilates for days: a week of 1 s cycles is tens of millions of
spans held live.  A :class:`FlightRecorder` is a drop-in ``Tracer``
whose span and event sinks are fixed-capacity rings (``collections.deque
(maxlen=...)``): append stays O(1) and lock-bounded, the oldest entries
fall off first, and every eviction is counted (``dropped_spans`` /
``dropped_events``) so a report can say exactly how much history the
window is missing.  Like its aviation namesake it keeps *the last N
minutes before the incident* — which is the part anyone ever reads.

:meth:`FlightRecorder.dump` freezes the window into a normal Chrome
trace plus a small validated :class:`~repro.telemetry.report.RunReport`
slice (phase totals, metrics snapshot, drop accounting, the reason for
the dump).  Wire the dump to the health plane — give a
:class:`~repro.telemetry.health.HealthProbe` an ``on_alert`` hook that
calls :meth:`FlightRecorder.dump` — and an
:class:`~repro.telemetry.health.AlertRule` firing leaves a trace on disk
that covers the moments *before* the failure, not a truncated prefix of
the run.

All ``Tracer`` aggregation (``phase_totals``, ``span_tree``,
``write_chrome_trace(tracer=...)``) works unchanged: those paths only
iterate the sinks, and the rings iterate in arrival order.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Iterator

from repro.telemetry.tracer import Tracer

__all__ = ["FlightRecorder", "SpanRing"]

#: default ring capacity — ~25 cycles of a fully-instrumented run
#: (a traced demo cycle emits ~150 spans); see docs/OBSERVABILITY.md
#: for sizing guidance.
DEFAULT_CAPACITY = 4096


class SpanRing:
    """Fixed-capacity FIFO that counts evictions.

    ``deque(maxlen=n)`` evicts silently; the whole point of a flight
    recorder is knowing how much it forgot, so ``append`` checks for an
    imminent eviction first and bumps ``dropped``.  Iteration yields
    oldest → newest (arrival order), matching a plain list's ordering so
    downstream consumers can't tell the difference.
    """

    __slots__ = ("_ring", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        from collections import deque

        self._ring: "deque" = deque(maxlen=int(capacity))
        self.dropped = 0

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def append(self, item) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(item)

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator:
        return iter(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __repr__(self) -> str:
        return (
            f"SpanRing(len={len(self._ring)}, capacity={self.capacity}, "
            f"dropped={self.dropped})"
        )


class FlightRecorder(Tracer):
    """A :class:`Tracer` with bounded memory and an incident ``dump()``.

    Parameters
    ----------
    capacity:
        Maximum completed spans retained (oldest evicted first).
    event_capacity:
        Maximum instant events retained; defaults to ``capacity``.
    clock, metrics:
        As for :class:`Tracer`.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        event_capacity: int | None = None,
        clock=time.perf_counter,
        metrics=None,
    ):
        super().__init__(clock=clock, metrics=metrics)
        self.spans = SpanRing(capacity)  # type: ignore[assignment]
        self.events = SpanRing(  # type: ignore[assignment]
            capacity if event_capacity is None else event_capacity
        )
        self._dump_lock = threading.Lock()
        self.dumps: list[Path] = []

    # -- accounting -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.spans.capacity

    @property
    def dropped_spans(self) -> int:
        return self.spans.dropped

    @property
    def dropped_events(self) -> int:
        return self.events.dropped

    def window(self) -> dict:
        """Drop/retention accounting for reports."""
        with self._lock:
            return {
                "capacity": self.spans.capacity,
                "spans_held": len(self.spans),
                "spans_dropped": self.spans.dropped,
                "event_capacity": self.events.capacity,
                "events_held": len(self.events),
                "events_dropped": self.events.dropped,
                "dumps": len(self.dumps),
            }

    # -- incident dump --------------------------------------------------------
    def dump(
        self,
        directory: str | Path,
        reason: str = "manual",
        *,
        prefix: str = "flight",
        notes: tuple | list = (),
    ) -> dict[str, Path]:
        """Freeze the current window to ``directory``.

        Writes ``<prefix>-<seq>.trace.json`` (Chrome trace of the
        retained spans/events) and ``<prefix>-<seq>.report.json`` (a
        validated run-report slice carrying the reason, drop accounting
        and a snapshot of the recorder's own ``metrics`` handle).
        Returns ``{"trace": path, "report": path}``.  Serialised — two
        triggers racing produce two complete, distinct dumps.
        """
        from repro.telemetry.chrome import write_chrome_trace
        from repro.telemetry.report import RunReport

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with self._dump_lock:
            seq = len(self.dumps)
            with self._lock:
                spans = list(self.spans)
                events = list(self.events)
                window = {
                    "capacity": self.spans.capacity,
                    "spans_held": len(self.spans),
                    "spans_dropped": self.spans.dropped,
                    "event_capacity": self.events.capacity,
                    "events_held": len(self.events),
                    "events_dropped": self.events.dropped,
                    "dumps": seq,
                }
            trace_path = directory / f"{prefix}-{seq:03d}.trace.json"
            write_chrome_trace(
                trace_path,
                spans=spans,
                events=events,
                metadata={"flight_recorder": dict(window, reason=reason)},
            )
            slice_report = RunReport(
                kind="flight-dump",
                config={"reason": reason, **{k: window[k] for k in sorted(window)}},
                n_cycles=0,
                phase_totals=self.phase_totals(),
                metrics={} if self.metrics is None else self.metrics.snapshot(),
                notes=[f"flight-recorder dump: {reason}", *map(str, notes)],
            )
            report_path = directory / f"{prefix}-{seq:03d}.report.json"
            slice_report.write(report_path)
            self.dumps.append(trace_path)
        return {"trace": trace_path, "report": report_path}
