"""Benchmark regenerating Figure 11 of the paper (see repro.experiments.fig11)."""

from repro.experiments.fig11 import run_fig11

from conftest import run_and_report


def test_fig11(benchmark, config):
    run_and_report(benchmark, run_fig11, config)
