"""Stdlib-only metrics exposition: Prometheus text + a ``/healthz`` probe.

The registries already snapshot to JSON for reports; this module makes
the same numbers *scrapeable while the process runs*.  A
:class:`MetricsExporter` is a threaded :mod:`http.server` with two
endpoints:

``/metrics``
    Prometheus text exposition rendered by :func:`prometheus_text` from
    the merged snapshot of every registered source — counters become
    ``TYPE counter`` samples, gauges ``TYPE gauge``, histograms the
    standard cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
    triple plus ``_p50/_p90/...`` convenience gauges.  Metric names are
    sanitised dot→underscore (``service.submitted`` →
    ``service_submitted``), so dashboards see the namespaces the code
    already uses.

``/healthz``
    A JSON liveness/readiness document: uptime, the exporter's own
    scrape accounting, and whatever the owning process contributes
    through its ``health_source`` callable (last-cycle age, queue
    depths, supervision counters, flight-recorder window).

Several sources merge into one scrape because the service deliberately
splits accounting: per-job registries (``use_thread_metrics``), the
service's own registry, and the process-global default.
:func:`merge_snapshots` sums counters, last-wins gauges, and sums
histogram buckets bound-wise — recomputing percentiles with
:func:`~repro.telemetry.metrics.percentiles_from_buckets` so the merged
view stays self-consistent.

Scrapes are observed into the exporter's private registry
(``exporter.scrape_seconds``), which is itself exported — the health
plane watches its own overhead.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping, Sequence

from repro.telemetry.metrics import (
    MetricsRegistry,
    percentiles_from_buckets,
)

__all__ = [
    "MetricsExporter",
    "merge_snapshots",
    "prometheus_text",
    "sanitize_metric_name",
]

#: fine-grained seconds buckets for scrape latency (a scrape should sit
#: well under a millisecond; anything slower is worth a bucket edge).
SCRAPE_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0)


def sanitize_metric_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus grammar.

    Dots (our namespace separator) become underscores; any other
    character outside ``[a-zA-Z0-9_:]`` is replaced by ``_``; a leading
    digit gets a ``_`` prefix.
    """
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render one registry snapshot as Prometheus text exposition.

    ``snapshot`` is the dict :meth:`MetricsRegistry.snapshot` produces
    (possibly merged by :func:`merge_snapshots`).  Output ends with a
    newline, as the format requires.
    """
    lines: list[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        metric = sanitize_metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        metric = sanitize_metric_name(name)
        bounds = hist.get("bounds") or []
        counts = hist.get("counts") or []
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, bucket_count in zip(bounds, counts):
            cumulative += bucket_count
            lines.append(
                f'{metric}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
            )
        total = hist.get("count", 0)
        lines.append(f'{metric}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{metric}_sum {_format_value(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count {total}")
        for pname, pvalue in sorted((hist.get("percentiles") or {}).items()):
            lines.append(f"# TYPE {metric}_{pname} gauge")
            lines.append(f"{metric}_{pname} {_format_value(pvalue)}")
    return "\n".join(lines) + "\n"


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict:
    """Combine several registry snapshots into one coherent view.

    Counters sum (each source counted its own work); gauges last-wins in
    argument order (list the most authoritative source last); histograms
    with identical bounds sum bucket-wise, with min/max/mean/percentiles
    recomputed from the merged counts.  A histogram whose bounds differ
    from an earlier source's keeps the first version and the conflict is
    recorded in the merged snapshot's ``"conflicts"`` list rather than
    silently misbinned.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    conflicts: list[str] = []
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in (snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, value in (snapshot.get("gauges") or {}).items():
            gauges[name] = float(value)
        for name, hist in (snapshot.get("histograms") or {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "bounds": list(hist.get("bounds") or []),
                    "counts": list(hist.get("counts") or []),
                    "count": int(hist.get("count", 0)),
                    "sum": float(hist.get("sum", 0.0)),
                    "min": float(hist.get("min", math.inf)),
                    "max": float(hist.get("max", -math.inf)),
                }
                continue
            if list(hist.get("bounds") or []) != merged["bounds"]:
                conflicts.append(f"histogram {name!r}: bounds mismatch")
                continue
            merged["counts"] = [
                a + b for a, b in zip(merged["counts"], hist.get("counts") or [])
            ]
            merged["count"] += int(hist.get("count", 0))
            merged["sum"] += float(hist.get("sum", 0.0))
            merged["min"] = min(merged["min"], float(hist.get("min", math.inf)))
            merged["max"] = max(merged["max"], float(hist.get("max", -math.inf)))
    out_hists: dict[str, dict] = {}
    for name, merged in sorted(histograms.items()):
        entry = {
            "bounds": merged["bounds"],
            "counts": merged["counts"],
            "count": merged["count"],
            "sum": merged["sum"],
        }
        if merged["count"]:
            entry["min"] = merged["min"]
            entry["max"] = merged["max"]
            entry["mean"] = merged["sum"] / merged["count"]
            entry["percentiles"] = percentiles_from_buckets(
                merged["bounds"], merged["counts"], merged["count"],
                merged["min"], merged["max"],
            )
        out_hists[name] = entry
    merged_snapshot: dict = {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": out_hists,
    }
    if conflicts:
        merged_snapshot["conflicts"] = conflicts
    return merged_snapshot


SnapshotSource = Callable[[], Mapping[str, Any]]


class MetricsExporter:
    """Threaded HTTP exposition of one or more metric sources.

    Parameters
    ----------
    sources:
        Registries and/or zero-arg snapshot callables, merged per scrape
        in order (gauges last-wins — list the most authoritative last).
        Callables let the owner expose a *dynamic* set, e.g. "the
        service registry plus every live job registry right now".
    health_source:
        Optional zero-arg callable returning a JSON-safe dict merged
        into the ``/healthz`` document (queue depths, last-cycle age,
        supervision counters...).
    port:
        TCP port; 0 (default) binds an ephemeral port, read it from
        ``exporter.port`` after :meth:`start`.
    host:
        Bind address; loopback by default — this is an operator plane,
        publishing it wider is an explicit choice.

    The exporter owns a private registry observing its own scrapes
    (``exporter.scrape_seconds`` histogram, ``exporter.scrapes``
    counter, ``exporter.errors``), appended to every ``/metrics``
    response.  ``start``/``stop`` are idempotent; the server thread is a
    daemon so an exporter can never hold a process open.
    """

    def __init__(
        self,
        sources: Sequence[MetricsRegistry | SnapshotSource] = (),
        *,
        health_source: Callable[[], Mapping[str, Any]] | None = None,
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self._sources = list(sources)
        self._health_source = health_source
        self._requested_port = int(port)
        self._host = host
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self.own_metrics = MetricsRegistry()

    # -- source management ----------------------------------------------------
    def add_source(self, source: MetricsRegistry | SnapshotSource) -> None:
        self._sources.append(source)

    def snapshot(self) -> dict:
        """The merged view a scrape serves (exporter's own metrics last)."""
        snapshots = []
        for source in self._sources:
            try:
                snapshots.append(
                    source.snapshot()
                    if isinstance(source, MetricsRegistry)
                    else source()
                )
            except Exception as exc:  # a broken source must not kill scrapes
                self.own_metrics.counter("exporter.source_errors").inc()
                snapshots.append(
                    {"gauges": {"exporter.broken_source": 1.0}, "counters": {},
                     "histograms": {}}
                )
                del exc
        snapshots.append(self.own_metrics.snapshot())
        return merge_snapshots(*snapshots)

    def healthz(self) -> dict:
        """The ``/healthz`` JSON document."""
        now = time.monotonic()
        doc: dict[str, Any] = {
            "status": "ok",
            "uptime_seconds": (
                now - self._started_at if self._started_at is not None else 0.0
            ),
            "scrapes": self.own_metrics.counter("exporter.scrapes").value,
        }
        if self._health_source is not None:
            try:
                doc.update(self._health_source())
            except Exception as exc:
                doc["status"] = "degraded"
                doc["health_source_error"] = f"{type(exc).__name__}: {exc}"
        return doc

    # -- HTTP plumbing --------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves an ephemeral request after start)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def start(self) -> "MetricsExporter":
        if self._server is not None:
            return self
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            # quiet: scrape lines on stderr would swamp service logs
            def log_message(self, fmt, *args):  # noqa: ARG002
                return

            def do_GET(self):  # noqa: N802 (http.server API)
                t0 = time.perf_counter()
                try:
                    if self.path.split("?")[0] == "/metrics":
                        body = prometheus_text(exporter.snapshot()).encode()
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                        status = 200
                    elif self.path.split("?")[0] == "/healthz":
                        body = json.dumps(exporter.healthz(), indent=2).encode()
                        ctype = "application/json"
                        status = 200
                    else:
                        body = b'{"error": "not found"}'
                        ctype = "application/json"
                        status = 404
                except Exception as exc:
                    exporter.own_metrics.counter("exporter.errors").inc()
                    body = json.dumps(
                        {"error": f"{type(exc).__name__}: {exc}"}
                    ).encode()
                    ctype = "application/json"
                    status = 500
                try:
                    self.send_response(status)
                    self.send_header("Content-Type", ctype)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response
                exporter.own_metrics.counter("exporter.scrapes").inc()
                exporter.own_metrics.histogram(
                    "exporter.scrape_seconds", SCRAPE_BUCKETS
                ).observe(time.perf_counter() - t0)

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="metrics-exporter",
            daemon=True,
        )
        self._started_at = time.monotonic()
        self._thread.start()
        return self

    def stop(self) -> None:
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
