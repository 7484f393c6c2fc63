"""Tests for the analysis equations (3), (5) and the local analysis (6).

These are the correctness anchors of the whole repo:
- gain form == precision form when B̂⁻¹ = B⁻¹ (the paper's (3) ⇔ (5)),
- EnKF mean -> Kalman filter mean as N -> ∞,
- local analysis with a full-domain expansion == global analysis,
- domain-decomposed assimilation is independent of the decomposition.
"""

import numpy as np
import pytest

from repro.core import (
    Decomposition,
    Grid,
    ObservationNetwork,
    analysis_gain_form,
    analysis_precision_form,
    local_analysis,
    perturb_observations,
)


def gaussian_setup(n=12, n_members=6, m=5, rng_seed=0, rho=0.7):
    """A linear-Gaussian toy problem with known true B."""
    rng = np.random.default_rng(rng_seed)
    cov = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    chol = np.linalg.cholesky(cov)
    truth = chol @ rng.standard_normal(n)
    # The background mean carries one realisation of N(0, B) error — the
    # statistical situation the Kalman gain with B = cov is built for —
    # and the members spread about it with the same covariance.
    background_mean = truth + chol @ rng.standard_normal(n)
    xb = background_mean[:, None] + chol @ rng.standard_normal((n, n_members))
    h = np.zeros((m, n))
    locations = rng.choice(n, size=m, replace=False)
    h[np.arange(m), locations] = 1.0
    sigma = 0.5
    y = h @ truth + rng.normal(0, sigma, m)
    ys = perturb_observations(y, sigma, n_members, rng=rng)
    r_diag = np.full(m, sigma**2)
    return cov, truth, xb, h, r_diag, y, ys


class TestFormEquivalence:
    def test_gain_equals_precision_with_exact_b(self):
        """Eq. (3) == Eq. (5) when B̂⁻¹ is the true inverse of B."""
        cov, _, xb, h, r_diag, _, ys = gaussian_setup()
        xa_gain = analysis_gain_form(xb, h, r_diag, ys, b_matrix=cov)
        xa_prec = analysis_precision_form(xb, h, r_diag, ys, np.linalg.inv(cov))
        assert np.allclose(xa_gain, xa_prec, atol=1e-8)

    def test_gain_equals_precision_with_sample_b(self):
        """Same equivalence with the (regularised) sample covariance."""
        _, _, xb, h, r_diag, _, ys = gaussian_setup(n=6, n_members=40)
        u = xb - xb.mean(axis=1, keepdims=True)
        b = u @ u.T / (xb.shape[1] - 1) + 1e-8 * np.eye(6)
        xa_gain = analysis_gain_form(xb, h, r_diag, ys, b_matrix=b)
        xa_prec = analysis_precision_form(xb, h, r_diag, ys, np.linalg.inv(b))
        assert np.allclose(xa_gain, xa_prec, atol=1e-6)

    def test_sparse_and_dense_h_agree(self):
        import scipy.sparse as sp

        cov, _, xb, h, r_diag, _, ys = gaussian_setup()
        binv = np.linalg.inv(cov)
        dense = analysis_precision_form(xb, h, r_diag, ys, binv)
        sparse = analysis_precision_form(xb, sp.csr_matrix(h), r_diag, ys, binv)
        assert np.allclose(dense, sparse)

    def test_gain_form_sparse_h_with_explicit_b(self):
        """Regression: sparse H + explicit B used to route B @ Hᵀ through
        ``np.matrix`` (scipy's ``todense``), changing downstream semantics.
        The result must be a plain ndarray and match the dense-H path."""
        import scipy.sparse as sp

        cov, _, xb, h, r_diag, _, ys = gaussian_setup()
        dense = analysis_gain_form(xb, h, r_diag, ys, b_matrix=cov)
        sparse = analysis_gain_form(xb, sp.csr_matrix(h), r_diag, ys,
                                    b_matrix=cov)
        assert type(sparse) is np.ndarray
        assert np.allclose(dense, sparse, atol=1e-10)


class TestAgainstKalmanFilter:
    def kf_mean(self, xb_mean, cov, h, r_diag, y):
        s = h @ cov @ h.T + np.diag(r_diag)
        k = cov @ h.T @ np.linalg.inv(s)
        return xb_mean + k @ (y - h @ xb_mean)

    def test_exact_b_matches_kf_mean(self):
        """With explicit B and centred perturbations, the ensemble-mean
        update is exactly the Kalman update of the background mean."""
        cov, _, xb, h, r_diag, y, _ = gaussian_setup(n_members=8)
        ys = perturb_observations(y, np.sqrt(r_diag[0]), 8, rng=42, center=True)
        xa = analysis_gain_form(xb, h, r_diag, ys, b_matrix=cov)
        want = self.kf_mean(xb.mean(axis=1), cov, h, r_diag, y)
        assert np.allclose(xa.mean(axis=1), want, atol=1e-10)

    def test_large_ensemble_converges_to_kf(self):
        """Sample-covariance EnKF mean -> KF mean as N grows."""
        n, m = 8, 4
        rng = np.random.default_rng(3)
        cov = 0.6 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        chol = np.linalg.cholesky(cov)
        truth = chol @ rng.standard_normal(n)
        h = np.eye(n)[:m]
        sigma = 0.4
        y = h @ truth + rng.normal(0, sigma, m)
        r_diag = np.full(m, sigma**2)

        n_members = 3000
        xb = truth[:, None] + chol @ rng.standard_normal((n, n_members))
        ys = perturb_observations(y, sigma, n_members, rng=rng)
        xa = analysis_gain_form(xb, h, r_diag, ys)
        want = self.kf_mean(xb.mean(axis=1), cov, h, r_diag, y)
        assert np.abs(xa.mean(axis=1) - want).max() < 0.1

    def test_analysis_reduces_error(self):
        # Fully observed with accurate observations: the update must pull
        # the ensemble mean toward the truth.
        cov, truth, xb, h, r_diag, y, ys = gaussian_setup(
            n=12, n_members=30, m=12, rng_seed=5
        )
        xa = analysis_gain_form(xb, h, r_diag, ys, b_matrix=cov)
        err_b = np.linalg.norm(xb.mean(axis=1) - truth)
        err_a = np.linalg.norm(xa.mean(axis=1) - truth)
        assert err_a < err_b

    def test_analysis_pulls_toward_observations(self):
        cov, _, xb, h, r_diag, y, ys = gaussian_setup(rng_seed=7)
        xa = analysis_gain_form(xb, h, r_diag, ys, b_matrix=cov)
        dist_b = np.linalg.norm(h @ xb.mean(axis=1) - y)
        dist_a = np.linalg.norm(h @ xa.mean(axis=1) - y)
        assert dist_a < dist_b


class TestValidation:
    def test_gain_rejects_1d_background(self):
        with pytest.raises(ValueError):
            analysis_gain_form(np.zeros(5), np.eye(5), np.ones(5), np.zeros((5, 1)))

    def test_gain_rejects_single_member_sample(self):
        with pytest.raises(ValueError):
            analysis_gain_form(
                np.zeros((5, 1)), np.eye(5), np.ones(5), np.zeros((5, 1))
            )

    def test_innovation_shape_mismatch(self):
        with pytest.raises(ValueError):
            analysis_gain_form(
                np.zeros((5, 3)), np.eye(5), np.ones(5), np.zeros((4, 3)),
                b_matrix=np.eye(5),
            )

    def test_precision_rejects_bad_binv_shape(self):
        with pytest.raises(ValueError):
            analysis_precision_form(
                np.zeros((5, 3)), np.eye(5), np.ones(5), np.zeros((5, 3)),
                b_inverse=np.eye(4),
            )


class TestLocalAnalysis:
    def setup_problem(self, n_x=16, n_y=8, n_members=10, m=30, seed=0):
        grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0)
        rng = np.random.default_rng(seed)
        # Smooth correlated background ensemble via random Fourier modes.
        xb = np.zeros((grid.n, n_members))
        xs, ys_ = np.meshgrid(np.arange(n_x), np.arange(n_y))
        for k in range(n_members):
            field = np.zeros((n_y, n_x))
            for _ in range(4):
                kx, ky = rng.integers(1, 3, size=2)
                phase = rng.uniform(0, 2 * np.pi, size=2)
                field += rng.normal() * np.cos(
                    2 * np.pi * kx * xs / n_x + phase[0]
                ) * np.cos(np.pi * ky * ys_ / n_y + phase[1])
            xb[:, k] = field.ravel()
        net = ObservationNetwork.random(grid, m=m, obs_error_std=0.3, rng=rng)
        truth = xb.mean(axis=1) + rng.normal(0, 0.5, grid.n)
        y = net.observe(truth, rng=rng)
        ys = perturb_observations(y, net.obs_error_std, n_members, rng=rng)
        return grid, xb, net, ys, truth

    def test_full_domain_expansion_equals_global_precision_form(self):
        """A 1x1 'decomposition' must reproduce the global Eq. (5)."""
        grid, xb, net, ys, _ = self.setup_problem()
        from repro.core.cholesky import modified_cholesky_inverse

        decomp = Decomposition(grid, n_sdx=1, n_sdy=1, xi=0, eta=0)
        sd = decomp.subdomain(0, 0)
        radius = 3.0

        # Global precision-form analysis with the same B̂⁻¹.
        ix, iy = sd.expansion_coords
        binv = modified_cholesky_inverse(xb, grid, ix, iy, radius_km=radius)
        r_diag = np.full(net.m, net.obs_error_std**2)
        xa_global = analysis_precision_form(xb, net.operator, r_diag, ys, binv)

        xa_local = local_analysis(sd, xb[sd.expansion_flat], net, ys, radius)
        order = np.argsort(sd.interior_flat)
        assert np.allclose(xa_local[order], xa_global[np.sort(sd.interior_flat)])

    @pytest.mark.parametrize("decomp_shape", [(2, 2), (4, 2), (2, 4)])
    def test_decomposition_invariance_diagonal_precision(self, decomp_shape):
        """With a radius below the grid spacing the modified-Cholesky
        estimate is diagonal and (with a selection H) the update decouples
        pointwise — so the assembled analysis must be *exactly* independent
        of the decomposition."""
        grid, xb, net, ys, _ = self.setup_problem()
        radius = 0.5  # < dx: no conditional predecessors anywhere
        n_sdx, n_sdy = decomp_shape

        results = []
        for shape in [(n_sdx, n_sdy), (1, 1)]:
            decomp = Decomposition(grid, n_sdx=shape[0], n_sdy=shape[1], xi=2, eta=2)
            xa = np.empty_like(xb)
            for sd in decomp:
                xa[sd.interior_flat] = local_analysis(
                    sd, xb[sd.expansion_flat], net, ys, radius
                )
            results.append(xa)
        assert np.allclose(results[0], results[1], atol=1e-9)

    @pytest.mark.parametrize("decomp_shape", [(2, 2), (4, 2)])
    def test_decomposition_consistency_approximate(self, decomp_shape):
        """With a real localization radius, per-expansion modified-Cholesky
        estimates differ near expansion borders (different conditioning
        orders), so decompositions are *statistically* consistent rather
        than bitwise equal: the increments must correlate strongly with the
        global (1x1) analysis increments."""
        grid, xb, net, ys, _ = self.setup_problem()
        radius = 2.0

        increments = []
        for shape in [decomp_shape, (1, 1)]:
            decomp = Decomposition(grid, n_sdx=shape[0], n_sdy=shape[1], xi=4, eta=4)
            xa = np.empty_like(xb)
            for sd in decomp:
                xa[sd.interior_flat] = local_analysis(
                    sd, xb[sd.expansion_flat], net, ys, radius
                )
            increments.append((xa - xb).ravel())
        corr = np.corrcoef(increments[0], increments[1])[0, 1]
        assert corr > 0.85

    def test_local_analysis_no_observations_returns_background(self):
        grid, xb, _, _, _ = self.setup_problem()
        # A network observing only the far corner.
        net = ObservationNetwork(grid, ix=[15], iy=[7], obs_error_std=0.3)
        ys = perturb_observations(np.zeros(1), 0.3, xb.shape[1], rng=0)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        sd = decomp.subdomain(0, 0)  # far from the observation
        xa = local_analysis(sd, xb[sd.expansion_flat], net, ys, radius_km=2.0)
        assert np.allclose(xa, xb[sd.interior_flat])

    def test_local_analysis_reduces_error_at_observed_points(self):
        grid, xb, net, ys, truth = self.setup_problem(m=60, seed=4)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=3, eta=3)
        xa = np.empty_like(xb)
        for sd in decomp:
            xa[sd.interior_flat] = local_analysis(
                sd, xb[sd.expansion_flat], net, ys, radius_km=2.0
            )
        obs_idx = net.flat_locations
        err_b = np.linalg.norm(xb.mean(axis=1)[obs_idx] - truth[obs_idx])
        err_a = np.linalg.norm(xa.mean(axis=1)[obs_idx] - truth[obs_idx])
        assert err_a < err_b

    def test_local_analysis_wrong_expansion_shape_rejected(self):
        grid, xb, net, ys, _ = self.setup_problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        sd = decomp.subdomain(0, 0)
        with pytest.raises(ValueError):
            local_analysis(sd, xb[:5], net, ys, radius_km=2.0)


class TestSparseSolverPath:
    def test_sparse_binv_matches_dense_precision_form(self):
        import scipy.sparse as spmod

        cov, _, xb, h, r_diag, _, ys = gaussian_setup()
        binv = np.linalg.inv(cov)
        dense = analysis_precision_form(xb, spmod.csr_matrix(h), r_diag, ys,
                                        binv)
        sparse = analysis_precision_form(
            xb, spmod.csr_matrix(h), r_diag, ys, spmod.csr_matrix(binv)
        )
        assert np.allclose(dense, sparse, atol=1e-8)

    def test_sparse_binv_with_dense_h(self):
        import scipy.sparse as spmod

        cov, _, xb, h, r_diag, _, ys = gaussian_setup()
        binv = np.linalg.inv(cov)
        dense = analysis_precision_form(xb, h, r_diag, ys, binv)
        sparse_b = analysis_precision_form(xb, h, r_diag, ys,
                                           spmod.csr_matrix(binv))
        assert np.allclose(dense, sparse_b, atol=1e-8)

    def test_sparse_cholesky_is_actually_sparse(self):
        import scipy.sparse as spmod

        from repro.core.cholesky import modified_cholesky_inverse

        grid = Grid(n_x=30, n_y=1, periodic_x=False)
        rng = np.random.default_rng(0)
        states = rng.normal(size=(30, 10))
        binv = modified_cholesky_inverse(
            states, grid, np.arange(30), np.zeros(30, dtype=int),
            radius_km=2.0,
        )
        assert spmod.issparse(binv)
        # Banded: radius 2 km on a 1 km line couples |i - j| <= 2 in L,
        # hence |i - j| <= 4 in LᵀD⁻¹L; far fewer nonzeros than dense.
        assert binv.nnz < 0.5 * 30 * 30
        rows, cols = binv.nonzero()
        assert np.abs(rows - cols).max() <= 4
        dense = binv.toarray()
        assert np.allclose(dense, dense.T)
        assert np.linalg.eigvalsh(dense).min() > 0
