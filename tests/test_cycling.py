"""Tests for the simulated reanalysis campaigns."""

import pytest

from repro.cluster import MachineSpec
from repro.filters import CycleCosts, PerfScenario, ReanalysisCampaign


def campaign(**kw):
    scenario = PerfScenario(n_x=48, n_y=24, n_members=8, h_bytes=240,
                            xi=2, eta=1)
    spec = kw.pop("spec", MachineSpec.small_cluster())
    costs = CycleCosts(model_step_cost=1e-6, steps_per_cycle=kw.pop("steps", 5))
    return ReanalysisCampaign(spec, scenario, costs=costs, **kw)


class TestCycleCosts:
    def test_forecast_scales_inverse_with_processors(self):
        costs = CycleCosts(model_step_cost=1e-6, steps_per_cycle=10)
        s = PerfScenario.small()
        assert costs.forecast_time(s, 200) == pytest.approx(
            costs.forecast_time(s, 100) / 2
        )

    def test_output_time_positive(self):
        costs = CycleCosts()
        assert costs.output_time(MachineSpec.small_cluster(),
                                 PerfScenario.small()) > 0

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            CycleCosts(model_step_cost=-1.0)
        with pytest.raises(ValueError):
            CycleCosts(steps_per_cycle=0)


class TestCampaign:
    def test_penkf_report_structure(self):
        rep = campaign().run_penkf(n_sdx=4, n_sdy=3, n_cycles=10)
        assert rep.filter_name == "p-enkf"
        assert rep.n_cycles == 10
        assert rep.cycle_time == pytest.approx(
            rep.forecast_time + rep.output_time + rep.assimilation_time
        )
        assert rep.total_time == pytest.approx(10 * rep.cycle_time)
        assert 0 < rep.assimilation_share < 1

    def test_senkf_report_has_tuning_info(self):
        rep = campaign().run_senkf(n_p=12, n_cycles=5)
        assert rep.filter_name == "s-enkf"
        assert rep.extra["c1"] + rep.extra["c2"] <= 12

    def test_invalid_cycles(self):
        with pytest.raises(ValueError):
            campaign().run_penkf(n_sdx=4, n_sdy=3, n_cycles=0)

    def test_campaign_speedup_positive(self):
        p, s, speedup = campaign().speedup(n_sdx=4, n_sdy=3, n_cycles=8)
        assert speedup > 0
        assert p.n_p == 12 and s.n_p == 12

    def test_campaign_speedup_bounded_by_assimilation_speedup(self):
        """Amdahl: the campaign gains at most the assimilation-phase gain."""
        p, s, speedup = campaign().speedup(n_sdx=8, n_sdy=3, n_cycles=8)
        assim_speedup = p.assimilation_time / s.assimilation_time
        if assim_speedup > 1:
            assert speedup <= assim_speedup + 1e-9


class TestCheckpointPricing:
    """Checkpoint I/O priced as a second streaming write + Young economics."""

    def test_default_campaign_is_checkpoint_free(self):
        rep = campaign().run_penkf(n_sdx=4, n_sdy=3, n_cycles=10)
        assert rep.checkpoint_interval is None
        assert rep.checkpoint_time_per_cycle == 0.0
        assert rep.checkpoint_overhead == 0.0
        # cycle_time unchanged by the new machinery for old callers
        assert rep.cycle_time == pytest.approx(
            rep.forecast_time + rep.output_time + rep.assimilation_time
        )

    def test_checkpointed_cycle_pays_amortised_commit(self):
        c = campaign()
        free = c.run_senkf(n_p=12, n_cycles=10)
        ckpt = c.run_senkf(n_p=12, n_cycles=10, checkpoint_interval=5)
        assert ckpt.checkpoint_time == pytest.approx(
            c.costs.checkpoint_time(c.spec, c.scenario)
        )
        # same bytes, same streaming write as the background output
        assert ckpt.checkpoint_time == pytest.approx(
            c.costs.output_time(c.spec, c.scenario)
        )
        assert ckpt.checkpoint_time_per_cycle == pytest.approx(
            ckpt.checkpoint_time / 5
        )
        assert ckpt.cycle_time == pytest.approx(
            free.cycle_time + ckpt.checkpoint_time / 5
        )
        assert ckpt.checkpoint_overhead == pytest.approx(
            (ckpt.checkpoint_time / 5) / free.cycle_time
        )

    def test_overhead_shrinks_with_interval(self):
        c = campaign()
        overheads = [
            c.run_penkf(n_sdx=4, n_sdy=3, n_cycles=5,
                        checkpoint_interval=k).checkpoint_overhead
            for k in (1, 2, 5, 10)
        ]
        assert overheads == sorted(overheads, reverse=True)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            campaign().run_penkf(n_sdx=4, n_sdy=3, n_cycles=5,
                                 checkpoint_interval=0)

    def test_young_interval_formula(self):
        from repro.checkpoint.costs import young_interval

        # k*·T = sqrt(2·C·MTTF): with T=2, C=1, MTTF=800 -> k* = 40/2 = 20
        assert young_interval(2.0, 1.0, 800.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            young_interval(0.0, 1.0, 800.0)

    def test_expected_overhead_formula(self):
        from repro.checkpoint.costs import expected_overhead

        # commit-only: C/(k·T) = 1/(5·2) = 0.1
        assert expected_overhead(2.0, 1.0, 5) == pytest.approx(0.1)
        # with failures: + (k·T + C)/(2·MTTF) = 11/200
        assert expected_overhead(2.0, 1.0, 5, mttf=100.0) == pytest.approx(
            0.1 + 11.0 / 200.0
        )

    def test_young_optimum_minimises_expected_overhead(self):
        from repro.checkpoint.costs import expected_overhead, young_interval

        t, c, mttf = 3.0, 0.7, 5000.0
        k_star = young_interval(t, c, mttf)
        at_opt = expected_overhead(t, c, k_star, mttf)
        for k in (k_star / 3, k_star / 1.5, k_star * 1.5, k_star * 3):
            assert at_opt <= expected_overhead(t, c, k, mttf) + 1e-12

    def test_tradeoff_table_structure(self):
        c = campaign()
        rep = c.run_senkf(n_p=12, n_cycles=10, checkpoint_interval=5)
        out = c.checkpoint_tradeoff(rep, mttf=3600.0, intervals=(1, 5, 20))
        assert out["checkpoint_time"] == pytest.approx(rep.checkpoint_time)
        assert out["optimal_interval"] > 0
        assert [r["interval"] for r in out["rows"]] == [1, 5, 20]
        for row in out["rows"]:
            assert row["overhead"] >= row["commit_share"] > 0

    @pytest.mark.parametrize("spec", [
        MachineSpec(alpha=1e-5, beta=1e-9, theta=5e-9, c_point=1e-5,
                    seek_time=1e-3, n_storage_nodes=4, disk_concurrency=4),
        MachineSpec.small_cluster(),
    ], ids=["tiny", "small_cluster"])
    def test_acceptance_k5_under_ten_percent_and_young_at_curve_bottom(
        self, spec
    ):
        """The checkpoint acceptance: committing every 5 cycles costs under
        10 % of the cycle, and no tabulated interval further from Young's
        optimum beats the one closest to it."""
        c = campaign(spec=spec)
        rep = c.run_senkf(n_p=12, n_cycles=100, checkpoint_interval=5)
        assert rep.checkpoint_overhead < 0.10
        out = c.checkpoint_tradeoff(rep, mttf=3600.0)
        best = min(out["rows"], key=lambda r: r["overhead"])
        closest = min(
            out["rows"],
            key=lambda r: abs(r["interval"] - out["optimal_interval"]),
        )
        assert best["interval"] == closest["interval"], out
