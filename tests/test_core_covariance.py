"""Tests for covariance estimation and the modified Cholesky inverse."""

import numpy as np
import pytest

from repro.core import Grid, sample_covariance, tapered_covariance
from repro.core.covariance import anomalies, distance_matrix
from repro.core.cholesky import modified_cholesky_inverse, neighbour_predecessors


def ar1_samples(n, n_members, rho=0.8, rng=None):
    """Samples from an AR(1) field: tridiagonal precision, known covariance."""
    rng = np.random.default_rng(rng)
    cov = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    chol = np.linalg.cholesky(cov)
    return cov, chol @ rng.standard_normal((n, n_members))


class TestSampleCovariance:
    def test_anomalies_zero_mean(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        assert np.allclose(anomalies(x).mean(axis=1), 0.0)

    def test_anomalies_rejects_1d(self):
        with pytest.raises(ValueError):
            anomalies(np.zeros(5))

    def test_matches_numpy_cov(self):
        x = np.random.default_rng(1).normal(size=(4, 30))
        assert np.allclose(sample_covariance(x), np.cov(x, ddof=1))

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            sample_covariance(np.zeros((4, 1)))

    def test_converges_to_truth(self):
        cov, x = ar1_samples(6, 20000, rng=2)
        est = sample_covariance(x)
        assert np.abs(est - cov).max() < 0.06

    def test_rank_deficient_when_n_small(self):
        """The paper's motivation: N << n makes B rank-deficient."""
        _, x = ar1_samples(20, 5, rng=3)
        b = sample_covariance(x)
        rank = np.linalg.matrix_rank(b, tol=1e-10)
        assert rank <= 4  # at most N-1


class TestDistanceAndTaper:
    def test_distance_matrix_periodic(self):
        g = Grid(n_x=10, n_y=5, dx_km=1.0, dy_km=1.0)
        ix = np.array([0, 9])
        iy = np.array([0, 0])
        d = distance_matrix(g, ix, iy)
        assert d[0, 1] == pytest.approx(1.0)

    def test_taper_zeroes_long_range(self):
        g = Grid(n_x=50, n_y=1, dx_km=1.0, dy_km=1.0, periodic_x=False)
        _, x = ar1_samples(50, 10, rng=4)
        ix = np.arange(50)
        iy = np.zeros(50, dtype=int)
        tapered = tapered_covariance(x, g, ix, iy, support_km=5.0)
        assert tapered[0, 20] == 0.0
        assert tapered[0, 0] > 0.0

    def test_taper_preserves_diagonal(self):
        g = Grid(n_x=30, n_y=1, periodic_x=False)
        _, x = ar1_samples(30, 10, rng=5)
        raw = sample_covariance(x)
        tapered = tapered_covariance(
            x, g, np.arange(30), np.zeros(30, dtype=int), support_km=5.0
        )
        assert np.allclose(np.diag(tapered), np.diag(raw))

    def test_taper_dimension_mismatch(self):
        g = Grid(n_x=30, n_y=1)
        _, x = ar1_samples(30, 10)
        with pytest.raises(ValueError):
            tapered_covariance(x, g, np.arange(10), np.zeros(10), support_km=5.0)


class TestNeighbourPredecessors:
    def test_only_preceding_indices(self):
        g = Grid(n_x=10, n_y=1, periodic_x=False)
        preds = neighbour_predecessors(
            g, np.arange(10), np.zeros(10, dtype=int), radius_km=2.0
        )
        assert list(preds[0]) == []
        assert list(preds[3]) == [1, 2]
        assert all(np.all(p < i) for i, p in enumerate(preds))

    def test_periodic_wraparound_neighbours(self):
        g = Grid(n_x=10, n_y=1, periodic_x=True)
        preds = neighbour_predecessors(
            g, np.arange(10), np.zeros(10, dtype=int), radius_km=1.5
        )
        # Point 9 is 1 away from point 0 around the seam.
        assert 0 in preds[9]

    def test_invalid_radius(self):
        g = Grid(n_x=4, n_y=1)
        with pytest.raises(ValueError):
            neighbour_predecessors(g, np.arange(4), np.zeros(4), radius_km=0.0)


class TestModifiedCholesky:
    def local_grid(self, n):
        return Grid(n_x=n, n_y=1, dx_km=1.0, dy_km=1.0, periodic_x=False)

    def test_output_spd(self):
        n = 15
        _, x = ar1_samples(n, 8, rng=6)
        g = self.local_grid(n)
        binv = modified_cholesky_inverse(
            x, g, np.arange(n), np.zeros(n, dtype=int), radius_km=3.0
        ).toarray()
        assert np.allclose(binv, binv.T)
        assert np.linalg.eigvalsh(binv).min() > 0

    def test_spd_even_when_members_fewer_than_predecessors(self):
        n = 30
        _, x = ar1_samples(n, 4, rng=7)  # N=4 << stencil sizes
        g = self.local_grid(n)
        binv = modified_cholesky_inverse(
            x, g, np.arange(n), np.zeros(n, dtype=int), radius_km=10.0
        ).toarray()
        assert np.linalg.eigvalsh(binv).min() > 0

    def test_converges_to_true_precision_ar1(self):
        """AR(1) precision is tridiagonal; radius>=1 captures it exactly."""
        n = 12
        cov, x = ar1_samples(n, 60000, rho=0.6, rng=8)
        g = self.local_grid(n)
        binv = modified_cholesky_inverse(
            x, g, np.arange(n), np.zeros(n, dtype=int),
            radius_km=1.5, ridge=1e-12,
        ).toarray()
        true_prec = np.linalg.inv(cov)
        # Relative Frobenius error should be small with many members.
        rel = np.linalg.norm(binv - true_prec) / np.linalg.norm(true_prec)
        assert rel < 0.05

    def test_beats_sample_inverse_when_rank_deficient(self):
        """With N < n the sample covariance is singular and its pseudo-inverse
        is a poor precision estimate; modified Cholesky stays close."""
        n = 25
        cov, x = ar1_samples(n, 20, rho=0.7, rng=9)
        g = self.local_grid(n)
        binv = modified_cholesky_inverse(
            x, g, np.arange(n), np.zeros(n, dtype=int), radius_km=2.0
        ).toarray()
        true_prec = np.linalg.inv(cov)
        sample_pinv = np.linalg.pinv(sample_covariance(x))
        err_mc = np.linalg.norm(binv - true_prec)
        err_sp = np.linalg.norm(sample_pinv - true_prec)
        assert err_mc < err_sp

    def test_zero_variance_component_floored(self):
        x = np.zeros((5, 6))
        x[0] = np.random.default_rng(10).normal(size=6)
        g = self.local_grid(5)
        binv = modified_cholesky_inverse(
            x, g, np.arange(5), np.zeros(5, dtype=int), radius_km=1.5
        ).toarray()
        assert np.all(np.isfinite(binv))
        assert np.linalg.eigvalsh(binv).min() > 0

    def test_rejects_one_member(self):
        g = self.local_grid(3)
        with pytest.raises(ValueError):
            modified_cholesky_inverse(
                np.zeros((3, 1)), g, np.arange(3), np.zeros(3), radius_km=1.0
            )

    def test_rejects_coord_mismatch(self):
        g = self.local_grid(3)
        with pytest.raises(ValueError):
            modified_cholesky_inverse(
                np.zeros((3, 4)), g, np.arange(2), np.zeros(2), radius_km=1.0
            )

    def test_localization_sparsifies_l(self):
        """Radius controls the conditional stencil: small r -> near-diagonal."""
        n = 20
        _, x = ar1_samples(n, 50, rng=11)
        g = self.local_grid(n)
        preds = neighbour_predecessors(
            g, np.arange(n), np.zeros(n, dtype=int), radius_km=1.5
        )
        assert max(len(p) for p in preds) <= 1
