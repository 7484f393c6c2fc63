"""Service bench: the concurrent-tenants + preemption acceptance scenario.

Runs :func:`repro.service.demo.run_acceptance_scenario` — three tenants'
P-EnKF campaigns on a two-slot service with chaos faults on, one
high-priority preemption mid-campaign — asserts every job finishes
bit-identical to its solo run, and writes ``BENCH_service.json``
(seconds per job, total wall, the service report) with a
``BENCH_service.metrics.json`` sibling.

Usable under pytest (``test_service_bench_smoke``) and as a CLI for the
CI ``service-smoke`` job::

    python benchmarks/bench_service.py --smoke
    python benchmarks/bench_service.py --cycles 8
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

BENCH_SERVICE_SCHEMA = "senkf-bench-service/1"

_DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"


def run_service_bench(cycles: int = 6, slots: int = 2) -> dict:
    """Run the acceptance scenario once; return the artifact payload.

    Runs with the metrics exporter bound (ephemeral port) so the health
    plane is part of the acceptance: the mid-run ``/metrics`` scrape
    must carry the key series and ``/healthz`` must answer while jobs
    execute.
    """
    from repro.service.demo import run_acceptance_scenario

    with tempfile.TemporaryDirectory() as root:
        scenario = run_acceptance_scenario(
            root, n_cycles=cycles, total_slots=slots, chaos=True,
            exporter_port=0,
        )
    assert all(scenario["identical"].values()), (
        f"service results diverged from solo runs: {scenario['identical']}"
    )
    assert scenario["preemptions"] >= 1, "no preemption was exercised"
    jobs = scenario["jobs"]
    assert all(j["state"] == "done" for j in jobs.values()), {
        name: j["state"] for name, j in jobs.items()
    }
    series = {
        line.split(" ")[0]
        for line in (scenario["metrics_text"] or "").splitlines()
        if line and not line.startswith("#")
    }
    for prefix in ("service_", "health_"):
        assert any(name.startswith(prefix) for name in series), (
            f"mid-run scrape missing {prefix}* series"
        )
    assert scenario["healthz"]["status"] == "ok", scenario["healthz"]
    wall = scenario["wall_seconds"]
    report = scenario["report"].to_dict()
    return {
        "schema": BENCH_SERVICE_SCHEMA,
        "cpu_count": os.cpu_count() or 1,
        "slots": slots,
        "cycles": cycles,
        "n_jobs": len(jobs),
        "n_tenants": len(report["tenants"]),
        "preemptions": scenario["preemptions"],
        "identical": True,
        "wall_seconds": wall,
        "seconds_per_job": wall / len(jobs),
        "queue_wait_seconds": {
            tenant: usage["queue_wait_seconds"]
            for tenant, usage in report["tenants"].items()
        },
        "report": report,
        "healthz": scenario["healthz"],
        "midrun_exposition": scenario["metrics_text"],
    }


def write_payload(payload: dict) -> Path:
    path = Path(os.environ.get("BENCH_SERVICE_PATH", _DEFAULT_PATH))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_metrics_snapshot(path, payload)
    return path


def _write_metrics_snapshot(payload_path: Path, payload: dict) -> Path:
    """Persist the run's metrics beside the bench payload.

    ``<payload>.metrics.json`` carries the service registry snapshot
    (queue-wait / slot-utilization histograms with percentiles), the
    mid-run ``/healthz`` document and the raw Prometheus exposition of
    the mid-run scrape — so a bench run's whole metric state survives as
    one small sibling artifact even when the report itself is discarded.
    """
    path = payload_path.with_name(payload_path.stem + ".metrics.json")
    path.write_text(json.dumps(
        {
            "schema": "senkf-bench-metrics/1",
            "bench": "service",
            "metrics": payload["report"]["metrics"],
            "health": payload["report"].get("health"),
            "healthz": payload["healthz"],
            "midrun_exposition": payload["midrun_exposition"],
        },
        indent=2, sort_keys=True,
    ) + "\n")
    return path


def report(payload: dict) -> str:
    from repro.service.report import render_service_report

    lines = [
        f"service bench — {payload['n_jobs']} job(s) / "
        f"{payload['n_tenants']} tenant(s) on {payload['slots']} slot(s), "
        f"{payload['cycles']} cycles each, {payload['cpu_count']} core(s)",
        f"  wall: {payload['wall_seconds']:.3f}s  "
        f"({payload['seconds_per_job']:.3f}s/job)   "
        f"preemptions: {payload['preemptions']}   "
        f"bit-identical to solo: {payload['identical']}",
        "",
        render_service_report(payload["report"]),
    ]
    return "\n".join(lines)


def test_service_bench_smoke():
    """Pytest entry: the acceptance scenario at smoke scale."""
    payload = run_service_bench(cycles=4)
    assert payload["identical"]
    assert payload["preemptions"] >= 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="short campaigns for CI smoke runs")
    parser.add_argument("--cycles", type=int, default=6,
                        help="cycles per campaign (default 6)")
    parser.add_argument("--slots", type=int, default=2,
                        help="service worker-slot budget (default 2)")
    args = parser.parse_args(argv)
    cycles = 4 if args.smoke else max(2, args.cycles)
    payload = run_service_bench(cycles=cycles, slots=args.slots)
    path = write_payload(payload)
    print(report(payload))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
