"""Benchmark regenerating Figure 5 of the paper (see repro.experiments.fig05)."""

from repro.experiments.fig05 import run_fig05

from conftest import run_and_report


def test_fig05(benchmark, config):
    run_and_report(benchmark, run_fig05, config)
