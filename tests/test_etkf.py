"""Tests for the deterministic ETKF (global and domain-localized)."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.analysis import analysis_gain_form
from repro.core.etkf import analysis_etkf, local_analysis_etkf
from repro.models import correlated_ensemble
from repro.parallel import GeometryCache


def etkf(xb, h, r_diag, y, inflation=1.0):
    """A global analysis: the ``B = 1`` stack."""
    return analysis_etkf(xb[None], h, r_diag, y, inflation=inflation)[0]


def gaussian_setup(n=12, n_members=8, m=6, seed=0, rho=0.7):
    rng = np.random.default_rng(seed)
    cov = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    chol = np.linalg.cholesky(cov)
    truth = chol @ rng.standard_normal(n)
    background_mean = truth + chol @ rng.standard_normal(n)
    xb = background_mean[:, None] + chol @ rng.standard_normal((n, n_members))
    h = np.eye(n)[rng.choice(n, size=m, replace=False)]
    sigma = 0.5
    y = h @ truth + rng.normal(0, sigma, m)
    return cov, truth, xb, h, np.full(m, sigma**2), y


class TestGlobalEtkf:
    def test_shape_and_finite(self):
        _, _, xb, h, r_diag, y = gaussian_setup()
        xa = etkf(xb, h, r_diag, y)
        assert xa.shape == xb.shape
        assert np.all(np.isfinite(xa))

    def test_mean_matches_kalman_update_in_ensemble_space(self):
        """The ETKF mean is the sample-covariance Kalman mean, exactly:
        ``U Ã (HU)ᵀ R⁻¹ = B Hᵀ (H B Hᵀ + R)⁻¹`` by the Woodbury identity."""
        _, _, xb, h, r_diag, y = gaussian_setup(n=8, n_members=40, m=5, seed=1)
        xa = etkf(xb, h, r_diag, y)
        want = analysis_gain_form(
            xb, h, r_diag, np.repeat(y[:, None], xb.shape[1], axis=1)
        ).mean(axis=1)
        assert np.allclose(xa.mean(axis=1), want, rtol=1e-10, atol=0.0)

    def test_analysis_covariance_exact_in_ensemble_space(self):
        """The transform produces exactly the Kalman posterior covariance
        within the ensemble subspace: Ua Ua^T/(N-1) = (I - KH) B_ens."""
        _, _, xb, h, r_diag, y = gaussian_setup(n=6, n_members=40, m=4)
        n_members = xb.shape[1]
        xa = etkf(xb, h, r_diag, y)

        u = xb - xb.mean(axis=1, keepdims=True)
        b_ens = u @ u.T / (n_members - 1)
        s = h @ b_ens @ h.T + np.diag(r_diag)
        k = b_ens @ h.T @ np.linalg.inv(s)
        want = (np.eye(6) - k @ h) @ b_ens

        ua = xa - xa.mean(axis=1, keepdims=True)
        got = ua @ ua.T / (n_members - 1)
        assert np.allclose(got, want, atol=1e-8)

    def test_deterministic_no_rng(self):
        _, _, xb, h, r_diag, y = gaussian_setup()
        assert np.array_equal(
            etkf(xb, h, r_diag, y), etkf(xb, h, r_diag, y)
        )

    def test_reduces_spread(self):
        _, _, xb, h, r_diag, y = gaussian_setup(n_members=20)
        xa = etkf(xb, h, r_diag, y)
        assert xa.std(axis=1).mean() < xb.std(axis=1).mean()

    def test_inflation_applied(self):
        _, _, xb, h, r_diag, y = gaussian_setup()
        plain = etkf(xb, h, r_diag, y, inflation=1.0)
        inflated = etkf(xb, h, r_diag, y, inflation=1.3)
        assert inflated.std(axis=1).mean() > plain.std(axis=1).mean()

    def test_validation(self):
        _, _, xb, h, r_diag, y = gaussian_setup()
        with pytest.raises(ValueError):
            etkf(xb[:, :1], h, r_diag, y)
        with pytest.raises(ValueError):
            etkf(xb, h, r_diag, y[:-1])
        with pytest.raises(ValueError):
            etkf(xb, h, r_diag, y, inflation=0.0)
        with pytest.raises(ValueError, match="h_operator has shape"):
            etkf(xb, h[:, :-1], r_diag, y)

    @pytest.mark.parametrize("operand", ["background", "h", "y"])
    def test_non_finite_input_rejected(self, operand):
        _, _, xb, h, r_diag, y = gaussian_setup()
        args = {"background": xb.copy(), "h": h.copy(), "y": y.copy()}
        args[operand].flat[0] = np.nan
        with pytest.raises(ValueError, match="non-finite values"):
            etkf(args["background"], args["h"], r_diag, args["y"])

    def test_mean_preserved_with_zero_innovation(self):
        _, _, xb, h, r_diag, _ = gaussian_setup()
        y = np.asarray(h @ xb.mean(axis=1))
        xa = etkf(xb, h, r_diag, y)
        assert np.allclose(xa.mean(axis=1), xb.mean(axis=1), atol=1e-10)


class TestLocalEtkf:
    def setup(self, seed=0):
        grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
        rng = np.random.default_rng(seed)
        xb = correlated_ensemble(grid, 12, length_scale_km=4.0, rng=rng)
        net = ObservationNetwork.random(grid, m=40, obs_error_std=0.3,
                                        rng=rng)
        truth = rng.normal(size=grid.n)
        y = net.observe(truth, rng=rng)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=3, eta=3)
        return grid, xb, net, y, truth, decomp

    def test_full_domain_matches_global(self):
        grid, xb, net, y, _, _ = self.setup()
        decomp = Decomposition(grid, n_sdx=1, n_sdy=1, xi=0, eta=0)
        sd = decomp.subdomain(0, 0)
        local = local_analysis_etkf(sd, xb[sd.expansion_flat], net, y)
        r_diag = np.full(net.m, net.obs_error_std**2)
        global_ = etkf(xb, net.operator, r_diag, y)
        order = np.argsort(sd.interior_flat)
        assert np.allclose(local[order], global_[np.sort(sd.interior_flat)],
                           atol=1e-8)

    def test_assembled_analysis_reduces_obs_space_error(self):
        grid, xb, net, y, truth, decomp = self.setup(seed=2)
        xa = np.empty_like(xb)
        for sd in decomp:
            xa[sd.interior_flat] = local_analysis_etkf(
                sd, xb[sd.expansion_flat], net, y
            )
        obs = net.flat_locations
        err_b = np.linalg.norm(xb.mean(axis=1)[obs] - truth[obs])
        err_a = np.linalg.norm(xa.mean(axis=1)[obs] - truth[obs])
        assert err_a < err_b

    def test_no_local_obs_returns_background(self):
        grid, xb, _, _, _, _ = self.setup()
        net = ObservationNetwork(grid, ix=[15], iy=[7], obs_error_std=0.3)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        sd = decomp.subdomain(0, 0)
        out = local_analysis_etkf(sd, xb[sd.expansion_flat], net,
                                  np.zeros(1))
        assert np.allclose(out, xb[sd.interior_flat])

    def test_no_obs_with_inflation_still_inflates(self):
        grid, xb, _, _, _, _ = self.setup()
        net = ObservationNetwork(grid, ix=[15], iy=[7], obs_error_std=0.3)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        sd = decomp.subdomain(0, 0)
        out = local_analysis_etkf(sd, xb[sd.expansion_flat], net,
                                  np.zeros(1), inflation=1.5)
        got_spread = out.std(axis=1).mean()
        bg_spread = xb[sd.interior_flat].std(axis=1).mean()
        assert got_spread > bg_spread
        background = xb[sd.interior_flat]
        mean = background.mean(axis=1, keepdims=True)
        assert np.array_equal(out, mean + 1.5 * (background - mean))

    @pytest.mark.parametrize("bad", [0.0, -0.09])
    def test_non_positive_r_rejected_by_piece_and_bucket(self, bad):
        grid, xb, net, y, _, decomp = self.setup()
        sd = decomp.subdomain(0, 0)
        geometry = GeometryCache().local_geometry(net, sd)
        r_diag = geometry.r_diag.copy()
        r_diag[-1] = bad
        local = xb[sd.expansion_flat]
        rejected = "r_diag must be finite and positive"
        with pytest.raises(ValueError, match=rejected):
            local_analysis_etkf(
                sd, local, None, y, geometry=replace(geometry, r_diag=r_diag)
            )
        with pytest.raises(ValueError, match=rejected):
            analysis_etkf(
                np.stack([local] * 3),
                sp.block_diag([geometry.h_local] * 3, format="csr"),
                np.tile(r_diag, 3), np.tile(y[geometry.obs_positions], 3),
            )

    def test_wrong_expansion_shape(self):
        grid, xb, net, y, _, decomp = self.setup()
        sd = decomp.subdomain(0, 0)
        with pytest.raises(ValueError):
            local_analysis_etkf(sd, xb[:4], net, y)
