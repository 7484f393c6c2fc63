"""Extension bench: campaign-level (multi-cycle) amortisation.

Not a paper figure — the paper times one assimilation.  This bench prices
a whole reanalysis campaign (forecast + background output + assimilation,
x cycles) and shows how S-EnKF's assimilation speedup translates to
campaign savings as a function of the forecast/assimilation cost ratio
(Amdahl's law in reanalysis form).
"""

from repro.cluster import MachineSpec
from repro.filters import CycleCosts, PerfScenario, ReanalysisCampaign


def test_campaign_amortisation(benchmark):
    def run():
        scenario = PerfScenario.small()
        spec = MachineSpec.small_cluster()
        rows = []
        for model_cost in (2e-8, 2e-7, 2e-6):
            campaign = ReanalysisCampaign(
                spec,
                scenario,
                costs=CycleCosts(model_step_cost=model_cost,
                                 steps_per_cycle=20),
            )
            p, s, speedup = campaign.speedup(n_sdx=90, n_sdy=10, n_cycles=10)
            rows.append(
                (
                    model_cost,
                    p.cycle_time,
                    s.cycle_time,
                    speedup,
                    p.assimilation_share,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n  model cost   P cycle(s)  S cycle(s)  campaign speedup  "
          "P assim share")
    for model_cost, p_cycle, s_cycle, speedup, share in rows:
        print(f"  {model_cost:9.0e}   {p_cycle:9.3f}  {s_cycle:9.3f}  "
              f"{speedup:16.2f}  {share:12.2f}")
    speedups = [r[3] for r in rows]
    shares = [r[4] for r in rows]
    # Amdahl: the heavier the forecast, the smaller the campaign gain.
    assert all(a >= b for a, b in zip(speedups, speedups[1:]))
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    # And with a light model, most of the paper's 3x+ survives.
    assert speedups[0] > 2.0
