"""Benchmark regenerating Figure 9 of the paper (see repro.experiments.fig09)."""

from repro.experiments.fig09 import run_fig09

from conftest import run_and_report


def test_fig09(benchmark, config):
    run_and_report(benchmark, run_fig09, config)
