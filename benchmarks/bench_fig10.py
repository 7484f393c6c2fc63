"""Benchmark regenerating Figure 10 of the paper (see repro.experiments.fig10)."""

from repro.experiments.fig10 import run_fig10

from conftest import run_and_report


def test_fig10(benchmark, config):
    run_and_report(benchmark, run_fig10, config)
