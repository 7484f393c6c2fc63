"""Benchmark regenerating Figure 1 of the paper (see repro.experiments.fig01)."""

from repro.experiments.fig01 import run_fig01

from conftest import run_and_report


def test_fig01(benchmark, config):
    run_and_report(benchmark, run_fig01, config)
