"""Telemetry bench: flight-recorder overhead + exporter scrape latency.

The live health plane must be cheap enough to leave on:

* **flight-recorder append overhead** — a
  :class:`~repro.telemetry.flightrec.FlightRecorder` replaces the plain
  :class:`~repro.telemetry.tracer.Tracer`'s unbounded span list with a
  fixed ring.  The acceptance bound is per-span append overhead **<= 2x**
  the plain tracer's (best-of-K medians; in practice the ring sits near
  1x — one length check and a deque append);
* **sampling-profiler overhead** — a serial P-EnKF analysis with the
  full observatory on (ambient tracer + sampling profiler) must stay
  within **1.10x** the bare analysis *and* bit-identical to it;
* **exporter scrape latency** — a ``/metrics`` scrape over a
  representative registry (the exposition render + HTTP round trip),
  recorded as ``scrape_latency`` in ``BENCH_health_plane.json``;
* **forced flight dump** — the CLI dumps a collapse-triggered flight
  window into ``--out`` so the CI ``health-smoke`` job has a real
  incident artifact to archive.

Usable under pytest (``test_flight_overhead``, ``test_scrape_latency``)
and as a CLI::

    python benchmarks/bench_telemetry.py --smoke --out flight-out
"""

import argparse
import json
import os
import sys
import time
import urllib.request
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

BENCH_TELEMETRY_PLANE_SCHEMA = "senkf-bench-health-plane/1"

_DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_health_plane.json"

#: overhead acceptance bound: ring append vs. plain list append.
MAX_OVERHEAD_RATIO = 2.0

#: sampling-profiler acceptance bound: profiled vs. bare analysis wall
#: time (median of paired-round ratios).  The sampler runs on its own
#: thread, so the analysis pays only GIL handoffs — measured ~2 %.
MAX_PROFILE_OVERHEAD_RATIO = 1.10


def _time_spans(tracer, n_spans: int) -> float:
    """Seconds per span for ``n_spans`` open/close pairs on ``tracer``."""
    t0 = time.perf_counter()
    for _ in range(n_spans):
        with tracer.span("cycle", category="cycle"):
            pass
    return (time.perf_counter() - t0) / n_spans


def run_flight_overhead(n_spans: int = 20_000, rounds: int = 5) -> dict:
    """Per-span overhead: FlightRecorder (ring) vs. plain Tracer (list).

    Takes the best of ``rounds`` for each side — the bound guards the
    steady-state cost, not scheduler noise — and runs the recorder at a
    capacity far below ``n_spans`` so every append pays the eviction
    path (the worst case).

    The baseline is the *recording* tracer the ring replaces, not
    ``NULL_TRACER``: any tracer that materialises spans is ~14x the
    disabled no-op, so the bound pins what the ring *adds* (one length
    check + a deque append; measured ~1.0x).
    """
    from repro.telemetry import FlightRecorder, Tracer

    baseline = min(
        _time_spans(Tracer(), n_spans) for _ in range(rounds)
    )
    flight = min(
        _time_spans(FlightRecorder(capacity=1024), n_spans)
        for _ in range(rounds)
    )
    ratio = flight / baseline if baseline > 0 else float("inf")
    return {
        "n_spans": n_spans,
        "rounds": rounds,
        "tracer_seconds_per_span": baseline,
        "flight_seconds_per_span": flight,
        "overhead_ratio": ratio,
        "max_ratio": MAX_OVERHEAD_RATIO,
        "passed": ratio <= MAX_OVERHEAD_RATIO,
    }


def run_profile_overhead(n_repeats: int = 20, rounds: int = 5) -> dict:
    """Serial P-EnKF analysis wall time, observatory on vs. off.

    The profiled side runs the full observatory stack — ambient
    :class:`~repro.telemetry.tracer.Tracer` plus the sampling profiler
    at its default interval — so the ratio prices everything "leave it
    on" costs, not just the sampler.  On shared CI boxes the clock
    drifts by far more than the sampler costs, so ratios are taken over
    back-to-back bare/profiled block pairs (order alternating round to
    round) and the acceptance ratio is the *best* pair — the same
    best-of-K convention as :func:`run_flight_overhead`: a noisy
    neighbour can spoil any one round, but a real regression shows in
    every round, so the minimum still catches it (the median rides
    along in the payload for trend-watching).  The profiled output must
    also stay bit-identical to the bare one: a profiler that perturbs
    the filter is broken no matter how cheap it is.
    """
    import statistics

    import numpy as np

    from repro.core import (
        Decomposition,
        Grid,
        ObservationNetwork,
        radius_to_halo,
    )
    from repro.filters import PEnKF
    from repro.telemetry import (
        SamplingProfiler,
        Tracer,
        use_profiler,
        use_tracer,
    )

    grid = Grid(n_x=24, n_y=12, dx_km=2.5, dy_km=5.0)
    xi, eta = radius_to_halo(6.0, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=60, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = PEnKF(radius_km=6.0, inflation=1.05, ridge=1e-2)
    states = np.random.default_rng(5).standard_normal((grid.n, 16))
    y = network.observe(states[:, 0], rng=np.random.default_rng(2))

    def run_once():
        return filt.assimilate(
            decomp, states, network, y, rng=np.random.default_rng(3)
        )

    def time_block():
        t0 = time.perf_counter()
        for _ in range(n_repeats):
            out = run_once()
        return (time.perf_counter() - t0) / n_repeats, out

    tracer = Tracer()
    profiler = SamplingProfiler()
    reference = run_once()  # also warms caches for the bare rounds
    with use_tracer(tracer), use_profiler(profiler), profiler:
        run_once()  # warm the traced path
    bare_seconds, profiled_seconds, ratios = [], [], []
    for r in range(rounds):
        # Alternate which side goes first so within-round drift biases
        # neither side.
        if r % 2 == 0:
            bare = time_block()[0]
            with use_tracer(tracer), use_profiler(profiler), profiler:
                seconds, profiled_out = time_block()
        else:
            with use_tracer(tracer), use_profiler(profiler), profiler:
                seconds, profiled_out = time_block()
            bare = time_block()[0]
        bare_seconds.append(bare)
        profiled_seconds.append(seconds)
        ratios.append(seconds / bare if bare > 0 else float("inf"))

    ratio = min(ratios)
    ratio_median = statistics.median(ratios)
    bare = min(bare_seconds)
    profiled = min(profiled_seconds)
    identical = bool(np.array_equal(reference, profiled_out))
    return {
        "n_repeats": n_repeats,
        "rounds": rounds,
        "bare_seconds_per_analysis": bare,
        "profiled_seconds_per_analysis": profiled,
        "overhead_ratio": ratio,
        "overhead_ratio_median": ratio_median,
        "max_ratio": MAX_PROFILE_OVERHEAD_RATIO,
        "n_samples": profiler.report()["n_samples"],
        "bit_identical": identical,
        "passed": ratio <= MAX_PROFILE_OVERHEAD_RATIO and identical,
    }


def run_scrape_latency(n_scrapes: int = 30) -> dict:
    """``/metrics`` round-trip latency over a representative registry."""
    from repro.telemetry import MetricsExporter, MetricsRegistry

    registry = MetricsRegistry()
    # A registry the size a mid-campaign service scrape actually sees.
    for i in range(40):
        registry.counter(f"service.counter_{i}").inc(i)
        registry.gauge(f"health.gauge_{i}").set(float(i))
    for i in range(8):
        hist = registry.histogram(f"cycle.hist_{i}")
        for value in (0.01, 0.1, 1.0):
            hist.observe(value)

    latencies = []
    with MetricsExporter([registry]) as exporter:
        url = f"{exporter.url}/metrics"
        for _ in range(n_scrapes):
            t0 = time.perf_counter()
            with urllib.request.urlopen(url, timeout=30) as resp:
                body = resp.read()
            latencies.append(time.perf_counter() - t0)
        assert b"service_counter_1" in body and b"health_gauge_1" in body
        # The exporter's self-observation lands after each response, so
        # by the last scrape the series must be present.
        assert b"exporter_scrape_seconds_bucket" in body
    latencies.sort()
    return {
        "n_scrapes": n_scrapes,
        "scrape_seconds_p50": latencies[len(latencies) // 2],
        "scrape_seconds_max": latencies[-1],
        "exposition_bytes": len(body),
    }


def run_forced_dump(out_dir) -> dict:
    """A real incident artifact: the collapse demo through the service.

    Submits the pathological demo campaign (inflation off, 3 members) —
    ``ensemble_collapse`` fires within three cycles and the job's flight
    recorder auto-dumps.  Copies nothing: the service writes the dump
    under its own root, which the caller points into the artifact dir.
    """
    from repro.service import ServiceClient
    from repro.service.demo import campaign_spec

    out = Path(out_dir)
    with ServiceClient(total_slots=1, root=out / "service") as client:
        job_id = client.submit(campaign_spec(
            "smoke", 9, 3, inflation=1.0, n_members=3, name="collapse",
        ))
        client.result(job_id, timeout=300)
        health = client.healthz()
    flight_dir = out / "service" / "smoke" / job_id / "flight"
    traces = sorted(flight_dir.glob("*.trace.json"))
    assert traces, "collapse alert should have dumped the flight recorder"
    reason = json.loads(
        traces[0].read_text()
    )["metadata"]["flight_recorder"]["reason"]
    assert reason.startswith("alert:ensemble_collapse"), reason
    return {
        "job_id": job_id,
        "dump_dir": str(flight_dir),
        "n_dumps": len(traces),
        "reason": reason,
        "alerts_fired": health["alerts_fired"],
    }


def write_payload(payload: dict) -> Path:
    path = Path(os.environ.get("BENCH_HEALTH_PLANE_PATH", _DEFAULT_PATH))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def report(payload: dict) -> str:
    overhead = payload["flight_overhead"]
    scrape = payload["scrape_latency"]
    lines = [
        "health-plane bench",
        f"  flight recorder: {overhead['flight_seconds_per_span'] * 1e6:.2f}"
        f" us/span vs tracer {overhead['tracer_seconds_per_span'] * 1e6:.2f}"
        f" us/span -> ratio {overhead['overhead_ratio']:.2f}"
        f" (bound {overhead['max_ratio']:.1f})",
        f"  exporter scrape: p50 {scrape['scrape_seconds_p50'] * 1e3:.2f} ms,"
        f" max {scrape['scrape_seconds_max'] * 1e3:.2f} ms"
        f" over {scrape['n_scrapes']} scrapes"
        f" ({scrape['exposition_bytes']} bytes exposition)",
    ]
    profile = payload.get("profile_overhead")
    if profile:
        lines.append(
            f"  sampling profiler: "
            f"{profile['profiled_seconds_per_analysis'] * 1e3:.2f} ms/analysis"
            f" vs bare {profile['bare_seconds_per_analysis'] * 1e3:.2f} ms"
            f" -> ratio {profile['overhead_ratio']:.3f}"
            f" (bound {profile['max_ratio']:.2f}),"
            f" {profile['n_samples']} samples,"
            f" bit-identical: {'yes' if profile['bit_identical'] else 'NO'}"
        )
    dump = payload.get("forced_dump")
    if dump:
        lines.append(
            f"  forced dump: {dump['n_dumps']} window(s) at {dump['dump_dir']}"
            f" ({dump['reason']})"
        )
    return "\n".join(lines)


def test_flight_overhead():
    """Pytest entry: ring append stays within the overhead bound."""
    overhead = run_flight_overhead(n_spans=5_000, rounds=3)
    assert overhead["passed"], overhead


def test_scrape_latency():
    """Pytest entry: a scrape completes and carries the self-series."""
    scrape = run_scrape_latency(n_scrapes=5)
    assert scrape["scrape_seconds_p50"] > 0.0


def test_profile_overhead():
    """Pytest entry: the observatory stays within its overhead bound
    and does not perturb a single bit of the analysis."""
    profile = run_profile_overhead(n_repeats=8, rounds=3)
    assert profile["bit_identical"], profile
    assert profile["passed"], profile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced span/scrape counts for CI")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also force a collapse-triggered flight dump "
                             "into DIR (the CI incident artifact)")
    args = parser.parse_args(argv)
    n_spans = 5_000 if args.smoke else 20_000
    n_scrapes = 10 if args.smoke else 30
    n_repeats = 8 if args.smoke else 20

    payload = {
        "schema": BENCH_TELEMETRY_PLANE_SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "flight_overhead": run_flight_overhead(n_spans=n_spans),
        "scrape_latency": run_scrape_latency(n_scrapes=n_scrapes),
        "profile_overhead": run_profile_overhead(n_repeats=n_repeats),
    }
    if args.out:
        payload["forced_dump"] = run_forced_dump(args.out)
    path = write_payload(payload)
    print(report(payload))
    print(f"wrote {path}")
    failed = False
    if not payload["flight_overhead"]["passed"]:
        print(
            f"flight-recorder overhead ratio "
            f"{payload['flight_overhead']['overhead_ratio']:.2f} exceeds "
            f"{MAX_OVERHEAD_RATIO}",
            file=sys.stderr,
        )
        failed = True
    if not payload["profile_overhead"]["passed"]:
        print(
            f"sampling-profiler overhead ratio "
            f"{payload['profile_overhead']['overhead_ratio']:.2f} exceeds "
            f"{MAX_PROFILE_OVERHEAD_RATIO} or the analysis diverged",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
