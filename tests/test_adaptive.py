"""Tests for adaptive inflation (RTPS and innovation-based)."""

import numpy as np
import pytest

from repro.core import Grid, ObservationNetwork, inflate, perturb_observations
from repro.core.adaptive import (
    ensemble_hbht_diag,
    innovation_inflation_factor,
    rtps,
)
from repro.core.analysis import analysis_gain_form
from repro.models import Lorenz96, TwinExperiment


class TestRtps:
    def make(self, seed=0):
        rng = np.random.default_rng(seed)
        xb = rng.normal(0, 2.0, size=(30, 12))
        xa = xb.mean(axis=1, keepdims=True) + 0.4 * (
            xb - xb.mean(axis=1, keepdims=True)
        )
        return xb, xa

    def test_alpha_zero_identity(self):
        xb, xa = self.make()
        assert np.allclose(rtps(xb, xa, relaxation=0.0), xa)

    def test_alpha_one_restores_prior_spread(self):
        xb, xa = self.make()
        out = rtps(xb, xa, relaxation=1.0)
        assert np.allclose(out.std(axis=1, ddof=1), xb.std(axis=1, ddof=1))

    def test_mean_preserved(self):
        xb, xa = self.make()
        out = rtps(xb, xa, relaxation=0.7)
        assert np.allclose(out.mean(axis=1), xa.mean(axis=1))

    def test_intermediate_alpha_between(self):
        xb, xa = self.make()
        out = rtps(xb, xa, relaxation=0.5)
        sa = xa.std(axis=1, ddof=1)
        sb = xb.std(axis=1, ddof=1)
        so = out.std(axis=1, ddof=1)
        assert np.all(so >= sa - 1e-12)
        assert np.all(so <= sb + 1e-12)

    def test_validation(self):
        xb, xa = self.make()
        with pytest.raises(ValueError):
            rtps(xb, xa, relaxation=1.5)
        with pytest.raises(ValueError):
            rtps(xb, xa[:, :5], relaxation=0.5)
        with pytest.raises(ValueError):
            rtps(xb[:, :1], xa[:, :1], relaxation=0.5)

    def test_collapsed_analysis_handled(self):
        xb, xa = self.make()
        xa_collapsed = np.repeat(xa.mean(axis=1, keepdims=True), 12, axis=1)
        out = rtps(xb, xa_collapsed, relaxation=0.5)
        assert np.all(np.isfinite(out))


class TestInnovationInflation:
    def test_consistent_ensemble_needs_no_inflation(self):
        rng = np.random.default_rng(1)
        hbht = np.full(500, 4.0)
        r = np.full(500, 1.0)
        d = rng.normal(0, np.sqrt(5.0), 500)  # matches HBHt + R
        factor = innovation_inflation_factor(d, hbht, r)
        assert factor == pytest.approx(1.0, abs=0.1)

    def test_underdispersed_ensemble_inflates(self):
        rng = np.random.default_rng(2)
        hbht = np.full(500, 1.0)  # ensemble claims small background var
        r = np.full(500, 1.0)
        d = rng.normal(0, np.sqrt(5.0), 500)  # actual innovations larger
        factor = innovation_inflation_factor(d, hbht, r)
        assert factor > 1.3

    def test_clipping(self):
        d = np.full(10, 100.0)
        assert innovation_inflation_factor(d, np.ones(10), np.ones(10),
                                           ceiling=1.5) == 1.5
        d = np.zeros(10)
        assert innovation_inflation_factor(d, np.ones(10), np.ones(10)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            innovation_inflation_factor(np.array([]), np.array([]), np.array([]))
        with pytest.raises(ValueError):
            innovation_inflation_factor(np.ones(3), np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            innovation_inflation_factor(np.ones(3), np.ones(3), np.ones(3),
                                        floor=2.0, ceiling=1.0)

    def test_hbht_diag_matches_direct(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(20, 200))
        h = rng.normal(size=(5, 20))
        diag = ensemble_hbht_diag(states, h)
        u = states - states.mean(axis=1, keepdims=True)
        b = u @ u.T / 199
        assert np.allclose(diag, np.diag(h @ b @ h.T))


class TestAdaptiveCycling:
    def test_rtps_improves_small_localized_ensemble(self):
        """A 10-member tapered EnKF on L96: RTPS counteracts the spread
        collapse and cuts the cycling RMSE substantially.  (Without
        localization a 10-member filter on n=40 diverges no matter the
        inflation — the textbook sampling-error story.)"""
        from repro.filters import SerialEnKF

        model = Lorenz96(n=40, dt=0.05)
        grid = Grid(n_x=40, n_y=1)
        network = ObservationNetwork.regular(grid, every_x=2, every_y=1,
                                             obs_error_std=1.0)
        rng = np.random.default_rng(11)
        truth0 = model.spun_up_state(rng=rng)
        ens0 = truth0[:, None] + rng.normal(0, 3.0, size=(40, 10))

        def run(relaxation):
            filt = SerialEnKF(network, taper_support_km=12.0)

            def assimilate(states, y, cycle_rng):
                xa = filt.assimilate(states, y, rng=cycle_rng)
                return rtps(states, xa, relaxation=relaxation) \
                    if relaxation else xa

            twin = TwinExperiment(model, network, assimilate,
                                  steps_per_cycle=2)
            return twin.run(truth0.copy(), ens0.copy(), n_cycles=40,
                            track_free_run=False)

        with_rtps = run(0.5)
        without = run(0.0)
        assert with_rtps.mean_analysis_rmse(skip=15) < \
            0.6 * without.mean_analysis_rmse(skip=15)
        assert with_rtps.mean_analysis_rmse(skip=15) < 1.0
        # RTPS visibly sustains the spread.
        assert np.mean(with_rtps.spread[15:]) > np.mean(without.spread[15:])


class TestMultiplicativeInflation:
    """``inflate`` builds its result in one buffer; the arithmetic is
    the textbook expression's, bit for bit."""

    @staticmethod
    def textbook(states, factor):
        mean = states.mean(axis=1, keepdims=True)
        return mean + factor * (states - mean)

    @pytest.mark.parametrize("factor", [1.0, 1.05, 0.3, 7.0])
    def test_bit_identical_to_the_textbook_expression(self, factor):
        rng = np.random.default_rng(20)
        states = rng.normal(3.0, 50.0, size=(200, 24))
        states[::7] = rng.normal(size=(len(states[::7]), 1))  # constant rows
        assert np.array_equal(
            inflate(states, factor), self.textbook(states, factor)
        )

    def test_new_array_returned_and_input_untouched(self):
        rng = np.random.default_rng(21)
        states = rng.normal(size=(50, 8))
        before = states.copy()
        out = inflate(states, 1.1)
        assert out is not states
        assert np.array_equal(out, self.textbook(before, 1.1))
        assert np.array_equal(states, before)
