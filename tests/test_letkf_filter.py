"""Tests for the LETKF filter class."""

import numpy as np
import pytest

from repro.cluster import MachineSpec
from repro.core import Decomposition, Grid, ObservationNetwork
from repro.filters import LETKF, PerfScenario
from repro.models import correlated_ensemble
from repro.parallel import AnalysisExecutor


def problem(seed=0):
    grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(seed)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(grid, 14,
                                                  length_scale_km=4.0,
                                                  rng=rng)
    net = ObservationNetwork.random(grid, m=50, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=3, eta=3)
    return grid, truth, states, net, y, decomp


class TestLetkf:
    def test_reduces_error_at_observed_points(self):
        _, truth, states, net, y, decomp = problem()
        xa = LETKF(inflation=1.0).assimilate(decomp, states, net, y)
        obs = net.flat_locations
        err_b = np.linalg.norm(states.mean(axis=1)[obs] - truth[obs])
        err_a = np.linalg.norm(xa.mean(axis=1)[obs] - truth[obs])
        assert err_a < err_b

    def test_deterministic_ignores_rng(self):
        _, _, states, net, y, decomp = problem()
        f = LETKF()
        a = f.assimilate(decomp, states, net, y, rng=1)
        b = f.assimilate(decomp, states, net, y, rng=999)
        assert np.array_equal(a, b)

    def test_reduces_spread(self):
        _, _, states, net, y, decomp = problem()
        xa = LETKF().assimilate(decomp, states, net, y)
        assert xa.std(axis=1).mean() < states.std(axis=1).mean()

    def test_inflation_parameter(self):
        _, _, states, net, y, decomp = problem()
        plain = LETKF(inflation=1.0).assimilate(decomp, states, net, y)
        inflated = LETKF(inflation=1.4).assimilate(decomp, states, net, y)
        assert inflated.std(axis=1).mean() > plain.std(axis=1).mean()

    def test_shape_mismatch(self):
        _, _, states, net, y, decomp = problem()
        with pytest.raises(ValueError):
            LETKF().assimilate(decomp, states[:10], net, y)

    def test_invalid_inflation(self):
        with pytest.raises(ValueError):
            LETKF(inflation=0.0)

    def test_nan_background_rejected_alike_under_every_strategy(self):
        """Per piece and per bucket, the one ETKF body rejects the same
        bad input with the same error."""
        _, _, states, net, y, decomp = problem()
        states = states.copy()
        states[net.flat_locations[0], 3] = np.nan
        errors = {}
        for strategy in ("serial", "thread", "vectorized"):
            with AnalysisExecutor(strategy=strategy, workers=2) as ex:
                with pytest.raises(ValueError) as info:
                    LETKF(executor=ex).assimilate(decomp, states, net, y)
            errors[strategy] = (type(info.value), str(info.value))
        assert set(errors.values()) == {(ValueError, (
            "non-finite values in the ensemble-transform system "
            "(background, observations or H)"
        ))}, errors

    def test_simulate_uses_block_workflow(self):
        scenario = PerfScenario(n_x=48, n_y=24, n_members=8, h_bytes=240,
                                xi=2, eta=1)
        report = LETKF.simulate(MachineSpec.small_cluster(), scenario,
                                n_sdx=4, n_sdy=3)
        assert report.filter_name == "letkf"
        assert report.total_time > 0
