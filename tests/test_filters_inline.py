"""Tests for the filters' inline (real-numerics) execution paths."""

import numpy as np
import pytest

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.filters import LEnKF, PEnKF, SEnKF, SerialEnKF
from repro.models import correlated_ensemble


def problem(n_x=16, n_y=8, n_members=12, m=40, seed=0):
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(seed)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(
        grid, n_members, length_scale_km=4.0, rng=rng
    )
    net = ObservationNetwork.random(grid, m=m, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    return grid, truth, states, net, y


class TestSerialEnKF:
    def test_reduces_error(self):
        grid, truth, states, net, y = problem()
        f = SerialEnKF(net)
        xa = f.assimilate(states, y, rng=1)
        err_b = np.linalg.norm(states.mean(axis=1) - truth)
        err_a = np.linalg.norm(xa.mean(axis=1) - truth)
        assert err_a < err_b

    def test_tapered_version_runs(self):
        grid, truth, states, net, y = problem()
        f = SerialEnKF(net, taper_support_km=6.0)
        xa = f.assimilate(states, y, rng=1)
        assert xa.shape == states.shape
        assert np.all(np.isfinite(xa))

    def test_inflation_increases_spread_pre_analysis(self):
        grid, truth, states, net, y = problem()
        plain = SerialEnKF(net, inflation=1.0).assimilate(states, y, rng=2)
        inflated = SerialEnKF(net, inflation=1.5).assimilate(states, y, rng=2)
        assert not np.allclose(plain, inflated)

    def test_rejects_1d(self):
        grid, truth, states, net, y = problem()
        with pytest.raises(ValueError):
            SerialEnKF(net).assimilate(states[:, 0], y)

    def test_invalid_inflation(self):
        grid, *_ , net, y = (*problem()[:3], *problem()[3:])
        with pytest.raises(ValueError):
            SerialEnKF(net, inflation=0.0)


class TestDistributedFilters:
    def test_penkf_reduces_error_at_observed_points(self):
        grid, truth, states, net, y = problem(m=60)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=3, eta=3)
        f = PEnKF(radius_km=2.0)
        xa = f.assimilate(decomp, states, net, y, rng=3)
        obs = net.flat_locations
        err_b = np.linalg.norm(states.mean(axis=1)[obs] - truth[obs])
        err_a = np.linalg.norm(xa.mean(axis=1)[obs] - truth[obs])
        assert err_a < err_b

    def test_lenkf_penkf_identical_numerics(self):
        """The baselines differ only in data movement, not mathematics."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        xa_l = LEnKF(radius_km=2.0).assimilate(decomp, states, net, y, rng=4)
        xa_p = PEnKF(radius_km=2.0).assimilate(decomp, states, net, y, rng=4)
        assert np.allclose(xa_l, xa_p)

    def test_senkf_single_layer_equals_penkf(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        xa_s = SEnKF(radius_km=2.0, n_layers=1).assimilate(
            decomp, states, net, y, rng=5
        )
        xa_p = PEnKF(radius_km=2.0).assimilate(decomp, states, net, y, rng=5)
        assert np.allclose(xa_s, xa_p)

    def test_senkf_layering_exact_for_diagonal_precision(self):
        """With radius < spacing the update decouples pointwise, so the
        multi-stage split cannot change the answer."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        one = SEnKF(radius_km=0.5, n_layers=1).assimilate(
            decomp, states, net, y, rng=6
        )
        four = SEnKF(radius_km=0.5, n_layers=4).assimilate(
            decomp, states, net, y, rng=6
        )
        assert np.allclose(one, four, atol=1e-10)

    def test_senkf_layering_statistically_consistent(self):
        """With a real radius the layered estimator differs near layer
        boundaries but increments must stay strongly correlated."""
        grid, truth, states, net, y = problem(m=60)
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=3, eta=3)
        one = SEnKF(radius_km=2.0, n_layers=1).assimilate(
            decomp, states, net, y, rng=7
        )
        four = SEnKF(radius_km=2.0, n_layers=4).assimilate(
            decomp, states, net, y, rng=7
        )
        inc1 = (one - states).ravel()
        inc4 = (four - states).ravel()
        corr = np.corrcoef(inc1, inc4)[0, 1]
        assert corr > 0.85

    def test_layer_divisibility_enforced(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        with pytest.raises(ValueError):
            SEnKF(radius_km=2.0, n_layers=3).assimilate(
                decomp, states, net, y, rng=8
            )

    def test_shape_mismatch_rejected(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        with pytest.raises(ValueError):
            PEnKF(radius_km=2.0).assimilate(decomp, states[:10], net, y)

    def test_identical_seeds_identical_results(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=2)
        f = PEnKF(radius_km=2.0)
        a = f.assimilate(decomp, states, net, y, rng=9)
        b = f.assimilate(decomp, states, net, y, rng=9)
        assert np.array_equal(a, b)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            PEnKF(radius_km=0.0)
