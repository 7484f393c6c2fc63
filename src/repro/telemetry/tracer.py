"""Spans and structured events for the *real* execution path.

The DES side of the repo already has first-class phase accounting
(:mod:`repro.sim.trace`); this module gives the real path — file stores,
filters, fault retries, checkpoint commits — the same visibility.  A
:class:`Tracer` records nestable :class:`Span` intervals (wall clock,
thread-safe, parented through a per-thread stack) plus instant
:class:`TraceEvent` markers, and the whole capture exports to Chrome
trace-event JSON (:mod:`repro.telemetry.chrome`) next to the simulator's
:class:`~repro.sim.trace.PhaseRecord` tracks.

Zero-dependency and zero-cost when off: the process-global default is
:data:`NULL_TRACER`, whose ``enabled`` flag lets hot paths skip span
construction entirely (one global read + one attribute test, no
allocations), and whose ``span()`` returns a shared no-op context
manager for the coarse call sites that don't bother guarding.

Instrumented code resolves the tracer at call time::

    tracer = get_tracer()
    if tracer.enabled:                      # hot path: guard everything
        with tracer.span("store.read_member", category="io", member=k):
            ...

    with get_tracer().span("cycle", category="cycle"):   # coarse path
        ...

and a capture is scoped with :func:`use_tracer`::

    with use_tracer(Tracer()) as tracer:
        campaign.run(...)
    write_chrome_trace(path, spans=tracer.spans)
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "use_thread_tracer",
]


@dataclass
class Span:
    """One completed interval of named work on one track."""

    name: str
    category: str
    start: float
    end: float
    span_id: int
    parent_id: int | None = None
    track: str = "main"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TraceEvent:
    """One instant marker (a retry fired, a fault was injected, ...)."""

    name: str
    category: str
    ts: float
    track: str = "main"
    attrs: dict[str, Any] = field(default_factory=dict)


class _ActiveSpan:
    """Context manager for one in-flight span; ``set()`` adds attributes."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def set(self, **attrs) -> "_ActiveSpan":
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self._span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._pop(self._span)
        return False


class _NullSpan:
    """Shared no-op stand-in for :class:`_ActiveSpan` (never allocated twice)."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is False so guarded hot paths skip instrumentation without
    constructing spans, attribute dicts or context managers.
    """

    __slots__ = ()
    enabled = False

    def now(self) -> float:
        return 0.0

    def span(self, name: str, category: str = "default", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, category: str = "default", **attrs) -> None:
        return None

    def record(
        self, name: str, start: float, end: float,
        category: str = "default", track: str | None = None, **attrs,
    ) -> None:
        return None

    def open_span(self, thread_id: int) -> None:
        return None

    def traced_thread_ids(self) -> set:
        return set()


NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe collector of spans and events.

    Parameters
    ----------
    clock:
        Monotonic seconds source (injectable for deterministic tests).
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry` carried
        alongside the capture so exporters and reports can snapshot both
        from one handle.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter, metrics=None):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        #: thread-id -> that thread's open-span stack (the same list object
        #: ``_stack`` hands the owning thread).  Only the owning thread
        #: mutates its list; other threads — the sampling profiler — may
        #: *peek* at the top entry, which is safe under the GIL.
        self._thread_stacks: dict[int, list[Span]] = {}
        self._next_id = 1
        self.metrics = metrics
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []

    # -- clock and identity --------------------------------------------------
    def now(self) -> float:
        """Current clock reading (the time base of every span)."""
        return self._clock()

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_stacks[threading.get_ident()] = stack
        return stack

    def _track(self) -> str:
        thread = threading.current_thread()
        return "main" if thread is threading.main_thread() else thread.name

    def current_span_id(self) -> int | None:
        """Span id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def open_span(self, thread_id: int) -> Span | None:
        """The innermost *open* span of ``thread_id``, or None.

        Cross-thread peek for the sampling profiler: the returned span is
        still in flight (its ``end`` is unset), so callers must only read
        its identity fields (name, category).  A momentary stale read
        during a concurrent push/pop is acceptable — the profiler is
        statistical.
        """
        stack = self._thread_stacks.get(thread_id)
        if not stack:
            return None
        try:
            return stack[-1]
        except IndexError:  # popped between the check and the read
            return None

    def traced_thread_ids(self) -> set[int]:
        """Ids of every thread that ever opened a span on this tracer."""
        with self._lock:
            return set(self._thread_stacks)

    # -- recording -----------------------------------------------------------
    def span(self, name: str, category: str = "default", **attrs) -> _ActiveSpan:
        """Open a nestable span; use as a context manager."""
        stack = self._stack()
        span = Span(
            name=name,
            category=category,
            start=self.now(),
            end=0.0,
            span_id=self._new_id(),
            parent_id=stack[-1].span_id if stack else None,
            track=self._track(),
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, span)

    def _push(self, span: Span) -> None:
        span.start = self.now()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit (generator abandoned mid-span): best effort
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.spans.append(span)

    def record(
        self, name: str, start: float, end: float,
        category: str = "default", track: str | None = None, **attrs,
    ) -> Span:
        """Append an already-measured span (e.g. a failed retry attempt).

        ``start``/``end`` must come from this tracer's clock
        (:meth:`now`).  The span is parented under the innermost open
        span of the calling thread, like a ``with``-block span would be.
        ``track`` overrides the calling thread's track name.
        """
        span = Span(
            name=name,
            category=category,
            start=start,
            end=end,
            span_id=self._new_id(),
            parent_id=self.current_span_id(),
            track=track if track is not None else self._track(),
            attrs=dict(attrs),
        )
        with self._lock:
            self.spans.append(span)
        return span

    def event(self, name: str, category: str = "default", **attrs) -> TraceEvent:
        """Record one instant event at the current clock reading."""
        evt = TraceEvent(
            name=name,
            category=category,
            ts=self.now(),
            track=self._track(),
            attrs=dict(attrs),
        )
        with self._lock:
            self.events.append(evt)
        return evt

    # -- aggregation ---------------------------------------------------------
    def phase_totals(self) -> dict[str, float]:
        """Per-category union time — overlap-free, like the simulator's
        :func:`~repro.sim.trace.union_total` accounting."""
        from repro.sim.trace import union_total

        with self._lock:
            spans = list(self.spans)
        by_category: dict[str, list[tuple[float, float]]] = {}
        for span in spans:
            by_category.setdefault(span.category, []).append(
                (span.start, span.end)
            )
        return {
            category: union_total(intervals)
            for category, intervals in sorted(by_category.items())
        }

    def span_tree(self) -> dict[int | None, list[Span]]:
        """``parent_id -> children`` adjacency of the completed spans."""
        with self._lock:
            spans = list(self.spans)
        tree: dict[int | None, list[Span]] = {}
        for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
            tree.setdefault(span.parent_id, []).append(span)
        return tree


# -- process-global default ---------------------------------------------------
_global_tracer: NullTracer | Tracer = NULL_TRACER
#: per-thread override (see :func:`use_thread_tracer`); wins over the global.
_thread_tracer = threading.local()


def get_tracer() -> NullTracer | Tracer:
    """The ambient tracer: this thread's override if one is installed
    (see :func:`use_thread_tracer`), else the process-global default
    (the :data:`NULL_TRACER` out of the box)."""
    override = getattr(_thread_tracer, "tracer", None)
    if override is not None:
        return override
    return _global_tracer


def set_tracer(tracer: Tracer | None) -> NullTracer | Tracer:
    """Install ``tracer`` globally (None restores the null tracer);
    returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[NullTracer | Tracer]:
    """Scope ``tracer`` as the process-global default."""
    previous = set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous if previous is not NULL_TRACER else None)


@contextmanager
def use_thread_tracer(tracer: Tracer | None) -> Iterator[NullTracer | Tracer]:
    """Scope ``tracer`` for the *calling thread only*.

    Concurrent captures cannot share the process-global slot: the
    installs would clobber each other and spans from different runs
    would interleave into one capture.
    :class:`~repro.checkpoint.runner.CampaignRunner` installs its
    campaign's tracer this way, and the
    :class:`~repro.parallel.executor.AnalysisExecutor` pool threads and
    :class:`~repro.data.store.ExtentWriter` write threads install the
    submitting thread's tracer, so a piece's spans land in the capture
    of the cycle that submitted it.  The override wins over the global
    in :func:`get_tracer` and nests (the previous override is restored
    on exit).  ``None`` is a no-op pass-through to whatever was ambient.
    """
    if tracer is None:
        yield get_tracer()
        return
    previous = getattr(_thread_tracer, "tracer", None)
    _thread_tracer.tracer = tracer
    try:
        yield tracer
    finally:
        _thread_tracer.tracer = previous
