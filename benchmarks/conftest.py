"""Shared fixtures for the figure benchmarks.

Every figure bench runs its experiment exactly once under
``pytest-benchmark`` (``pedantic(rounds=1)``) — the experiment itself is a
full simulated sweep, so the interesting number is its wall time, not a
statistical distribution over repetitions — prints the regenerated data
table (visible with ``pytest -s``), and asserts the figure's acceptance
criteria so a benchmark run doubles as a reproduction check.

Benches that add ``bench_telemetry`` to their signature additionally run
under a per-test :class:`~repro.telemetry.Tracer` + registry; the session
rolls every opted-in test into one schema-versioned
``BENCH_telemetry.json`` (location overridable with the
``BENCH_TELEMETRY_PATH`` env var) so CI can archive the whole trajectory
— wall seconds, span counts, phase totals and metric snapshots per bench
— as a single artifact.
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import default_config

#: Version the bench-telemetry artifact so downstream tooling can detect
#: layout changes; bump on any key rename or semantic change.
BENCH_TELEMETRY_SCHEMA = "senkf-bench-telemetry/1"

_DEFAULT_TELEMETRY_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"


@pytest.fixture(scope="session")
def config():
    """Experiment configuration (REPRO_FULL=1 switches to paper scale)."""
    return default_config()


@pytest.fixture(scope="session")
def _bench_collector():
    """Session-wide accumulator; writes ``BENCH_telemetry.json`` at teardown."""
    entries = []
    yield entries
    if not entries:
        return
    path = Path(os.environ.get("BENCH_TELEMETRY_PATH", _DEFAULT_TELEMETRY_PATH))
    payload = {
        "schema": BENCH_TELEMETRY_SCHEMA,
        "n_benches": len(entries),
        "benches": entries,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def bench_telemetry(request, _bench_collector):
    """Opt-in per-bench capture: add this name to a bench's signature.

    Installs a fresh tracer + metrics registry for the duration of the
    test (so instrumented library code records into it) and appends the
    test's telemetry row to the session collector.
    """
    from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer
    from repro.util.timing import WallTimer

    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    with use_tracer(tracer), use_metrics(metrics), WallTimer() as timer:
        yield tracer
    _bench_collector.append({
        "test": request.node.name,
        "wall_seconds": timer.elapsed,
        "n_spans": len(tracer.spans),
        "n_events": len(tracer.events),
        "phase_totals": tracer.phase_totals(),
        "metrics": metrics.snapshot(),
    })


def run_and_report(benchmark, runner, config):
    """Run one figure under the benchmark harness and verify it."""
    from repro.experiments import format_result

    result = benchmark.pedantic(runner, args=(config,), rounds=1, iterations=1)
    print()
    print(format_result(result))
    failed = [name for name, ok in result.acceptance.items() if not ok]
    assert not failed, f"{result.name} acceptance failed: {failed}"
    return result
