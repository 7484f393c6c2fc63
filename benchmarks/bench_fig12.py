"""Benchmark regenerating Figure 12 of the paper (see repro.experiments.fig12)."""

from repro.experiments.fig12 import run_fig12

from conftest import run_and_report


def test_fig12(benchmark, config):
    run_and_report(benchmark, run_fig12, config)
