"""Counters, gauges and fixed-bucket histograms with a JSON snapshot.

A :class:`MetricsRegistry` is the numeric companion of the
:class:`~repro.telemetry.tracer.Tracer`: spans say *when*, metrics say
*how much* (bytes read, seeks issued, retries spent, per-cycle RMSE).
Instruments are created on first use and are safe to update from many
threads; :meth:`MetricsRegistry.snapshot` returns a plain JSON-safe dict
that lands in run reports.

Like the tracer, metric updates at instrumented call sites are guarded by
``get_tracer().enabled`` so a telemetry-off run pays nothing.
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = [
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "percentiles_from_buckets",
    "set_metrics",
    "use_metrics",
    "use_thread_metrics",
]

#: Log-spaced seconds buckets covering 10 µs .. 100 s — wide enough for a
#: single extent read and a full checkpoint commit alike.
DEFAULT_TIME_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (e.g. the newest cycle's analysis RMSE)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = math.nan
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bin.

    ``bounds`` are ascending upper edges; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow bin.
    Running count/sum/min/max ride along so means survive the snapshot.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must be ascending, got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    #: quantiles reported by :meth:`percentiles` (and hence snapshots).
    DEFAULT_QUANTILES = (0.50, 0.90, 0.95, 0.99)

    def percentiles(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> dict[str, float]:
        """Interpolated quantiles (p50/p90/p95/p99) from the bucket counts.

        Observations inside a bucket are assumed uniformly spread between
        its edges (the standard fixed-bucket estimator); the first
        bucket's lower edge is the recorded ``min`` and the overflow
        bin's upper edge the recorded ``max``, so estimates never leave
        the observed range.  Empty histogram → empty dict.
        """
        with self._lock:
            counts = list(self.counts)
            count = self.count
            lo, hi = self.min, self.max
        return percentiles_from_buckets(
            self.bounds, counts, count, lo, hi, quantiles
        )


def percentiles_from_buckets(
    bounds: Sequence[float],
    counts: Sequence[int],
    count: int,
    lo: float,
    hi: float,
    quantiles: Sequence[float] = Histogram.DEFAULT_QUANTILES,
) -> dict[str, float]:
    """Interpolated quantiles from raw fixed-bucket state.

    The estimator :meth:`Histogram.percentiles` uses, exposed as a pure
    function so merged snapshots (several registries summed bucket-wise,
    see :func:`repro.telemetry.exporter.merge_snapshots`) can recompute
    percentiles without a live :class:`Histogram`.  Zero ``count`` →
    empty dict.
    """
    if not count:
        return {}
    out: dict[str, float] = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        target = q * count
        cumulative = 0
        value = hi
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            lower = bounds[index - 1] if index > 0 else lo
            upper = bounds[index] if index < len(bounds) else hi
            lower = min(max(lower, lo), hi)
            upper = min(max(upper, lo), hi)
            if cumulative + bucket_count >= target:
                fraction = (
                    (target - cumulative) / bucket_count
                    if bucket_count
                    else 0.0
                )
                value = lower + (upper - lower) * fraction
                break
            cumulative += bucket_count
        out[f"p{round(q * 100)}"] = min(max(value, lo), hi)
    return out


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as JSON."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
        if tuple(float(b) for b in bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with different bounds"
            )
        return instrument

    def snapshot(self) -> dict:
        """JSON-safe view of every instrument (NaN-free)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict = {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {
                name: g.value
                for name, g in sorted(gauges.items())
                if not math.isnan(g.value)
            },
            "histograms": {},
        }
        for name, h in sorted(histograms.items()):
            entry = {
                "bounds": list(h.bounds),
                "counts": list(h.counts),
                "count": h.count,
                "sum": h.total,
            }
            if h.count:
                entry["min"] = h.min
                entry["max"] = h.max
                entry["mean"] = h.mean
                entry["percentiles"] = h.percentiles()
            out["histograms"][name] = entry
        return out


# -- process-global default ---------------------------------------------------
_global_metrics = MetricsRegistry()
#: per-thread override (see :func:`use_thread_metrics`); wins over the global.
_thread_metrics = threading.local()


def get_metrics() -> MetricsRegistry:
    """The ambient registry: this thread's override if one is installed
    (see :func:`use_thread_metrics`), else the process-global default
    (always a real one; updates are cheap and call sites gate on
    ``get_tracer().enabled`` anyway)."""
    override = getattr(_thread_metrics, "registry", None)
    if override is not None:
        return override
    return _global_metrics


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` globally (None resets to a fresh one);
    returns the previous registry."""
    global _global_metrics
    previous = _global_metrics
    _global_metrics = registry if registry is not None else MetricsRegistry()
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry | None) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the process-global default."""
    previous = set_metrics(registry)
    try:
        yield get_metrics()
    finally:
        set_metrics(previous)


@contextmanager
def use_thread_metrics(
    registry: MetricsRegistry | None,
) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` for the *calling thread only*.

    The metrics twin of
    :func:`~repro.telemetry.tracer.use_thread_tracer`: concurrent
    service jobs each instrument the same call sites, and without a
    thread-local override their counters all bleed into the one shared
    process registry — job A's ``cycle.count`` becomes indistinguishable
    from job B's.  Installing a per-job registry confines each job's
    accounting to its worker thread; it wins over the global in
    :func:`get_metrics` and nests (the previous override is restored on
    exit).  ``None`` is a no-op pass-through to whatever was ambient.
    Threads the job spawns itself do not inherit the override and fall through to the global registry.
    """
    if registry is None:
        yield get_metrics()
        return
    previous = getattr(_thread_metrics, "registry", None)
    _thread_metrics.registry = registry
    try:
        yield registry
    finally:
        _thread_metrics.registry = previous
