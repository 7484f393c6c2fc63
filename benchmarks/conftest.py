"""Shared fixtures for the figure benchmarks.

Every figure bench runs its experiment exactly once under
``pytest-benchmark`` (``pedantic(rounds=1)``) — the experiment itself is a
full simulated sweep, so the interesting number is its wall time, not a
statistical distribution over repetitions — prints the regenerated data
table (visible with ``pytest -s``), and asserts the figure's acceptance
criteria so a benchmark run doubles as a reproduction check.
"""

import pytest

from repro.experiments import default_config


@pytest.fixture(scope="session")
def config():
    """Experiment configuration (REPRO_FULL=1 switches to paper scale)."""
    return default_config()


def run_and_report(benchmark, runner, config):
    """Run one figure under the benchmark harness and verify it."""
    from repro.experiments import format_result

    result = benchmark.pedantic(runner, args=(config,), rounds=1, iterations=1)
    print()
    print(format_result(result))
    failed = [name for name, ok in result.acceptance.items() if not ok]
    assert not failed, f"{result.name} acceptance failed: {failed}"
    return result
