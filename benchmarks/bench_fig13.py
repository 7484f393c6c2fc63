"""Benchmark regenerating Figure 13 of the paper (see repro.experiments.fig13)."""

from repro.experiments.fig13 import run_fig13

from conftest import run_and_report


def test_fig13(benchmark, config):
    run_and_report(benchmark, run_fig13, config)
