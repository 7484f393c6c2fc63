"""Tests for the Desroziers diagnostics."""

import numpy as np
import pytest

from repro.core.analysis import analysis_gain_form
from repro.core.diagnostics import desroziers_diagnostics
from repro.core.observations import perturb_observations


class TestDesroziers:
    def run_consistent_system(self, sigma_used, sigma_true, seed=0):
        """Assimilate with sigma_used while the data carry sigma_true noise."""
        rng = np.random.default_rng(seed)
        n, m, members = 40, 40, 4000
        cov = 0.7 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        chol = np.linalg.cholesky(cov)
        truth = chol @ rng.standard_normal(n)
        xb = (truth + chol @ rng.standard_normal(n))[:, None] + \
            chol @ rng.standard_normal((n, members))
        h = np.eye(n)
        y = h @ truth + rng.normal(0, sigma_true, m)
        r_diag = np.full(m, sigma_used**2)
        ys = perturb_observations(y, sigma_used, members, rng=rng)
        xa = analysis_gain_form(xb, h, r_diag, ys)
        return desroziers_diagnostics(xb, xa, h, y, sigma_used**2)

    def test_estimated_hbht_positive(self):
        stats = self.run_consistent_system(0.5, 0.5)
        assert stats.estimated_hbht > 0

    def test_innovation_identity_holds_in_expectation(self):
        """Averaged over seeds, E[d_b^2] ≈ HBH^T + R for a consistent system."""
        ratios = [
            self.run_consistent_system(0.5, 0.5, seed=s)
            .innovation_consistency_ratio
            for s in range(8)
        ]
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.35)

    def test_detects_underestimated_r(self):
        """Assimilating with sigma smaller than the real noise shows up as
        a consistency ratio above 1 (on average over realisations)."""
        ratios_wrong = [
            self.run_consistent_system(0.5, 1.5, seed=s).r_consistency_ratio
            for s in range(8)
        ]
        ratios_right = [
            self.run_consistent_system(0.5, 0.5, seed=s).r_consistency_ratio
            for s in range(8)
        ]
        assert np.mean(ratios_wrong) > 2.0 * np.mean(ratios_right)

    def test_validation(self):
        with pytest.raises(ValueError):
            desroziers_diagnostics(
                np.zeros((3, 4)), np.zeros((3, 5)), np.eye(3), np.zeros(3), 1.0
            )
        with pytest.raises(ValueError):
            desroziers_diagnostics(
                np.zeros((3, 4)), np.zeros((3, 4)), np.eye(3), np.zeros(2), 1.0
            )
        with pytest.raises(ValueError):
            desroziers_diagnostics(
                np.zeros((3, 4)), np.zeros((3, 4)), np.eye(3), np.zeros(3), 0.0
            )
