"""Chaos path through the parallel engine.

The resilience layer's end-to-end story — a :class:`FaultyStore` drops
ensemble members, the filter degrades gracefully with compensated
inflation — must survive fan-out unchanged: the stateless per-call
inflation override means a single pool-backed engine serves degraded
analyses bit-identically to the serial path, with no filter copies.
"""

import numpy as np
import pytest

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.data import EnsembleStore, stage_plan_from_disk
from repro.faults import FaultSchedule, FaultyStore, RetryPolicy
from repro.filters.distributed import DistributedEnKF
from repro.io import single_reader_plan
from repro.models import correlated_ensemble
from repro.parallel import AnalysisExecutor


@pytest.fixture
def chaos_problem(tmp_path):
    grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(0)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(
        grid, 12, length_scale_km=4.0, rng=rng
    )
    store = EnsembleStore(tmp_path / "ens", grid)
    store.write_ensemble(states)
    net = ObservationNetwork.random(grid, m=40, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
    return store, states, net, y, decomp


@pytest.mark.parametrize("where", ["thread"])
def test_chaos_run_through_parallel_engine(chaos_problem, where):
    """FaultyStore staging -> degraded analysis, fanned out over a pool
    of two (``thread``): bit-identical to one worker on the written
    states and the filter's state untouched."""
    store, states, net, y, decomp = chaos_problem
    sched = FaultSchedule(seed=7, member_fault_rate=0.4,
                          member_fault_attempts=5)
    faulty = FaultyStore(store, sched)
    whole = Decomposition(store.grid, n_sdx=1, n_sdy=1, xi=0, eta=0)
    got, dropped = stage_plan_from_disk(
        single_reader_plan(whole, store.layout, states.shape[1]), faulty,
        retry=RetryPolicy(max_retries=2), report=faulty.report,
    )
    assert dropped, "schedule must actually drop members for this test"
    surviving = [k for k in range(states.shape[1]) if k not in dropped]
    assert np.array_equal(got[:, surviving], states[:, surviving])

    serial = DistributedEnKF(radius_km=2.0, inflation=1.05)
    ref, ref_result = serial.assimilate_degraded(
        decomp, states, net, y, dropped=dropped, rng=13
    )
    with AnalysisExecutor(workers=2) as ex:
        filt = DistributedEnKF(radius_km=2.0, inflation=1.05, executor=ex)
        out, result = filt.assimilate_degraded(
            decomp, got, net, y, dropped=dropped, rng=13
        )
        assert filt.inflation == 1.05  # no mutation, pool-safe
    assert result.surviving == ref_result.surviving
    assert result.compensation == ref_result.compensation
    assert np.array_equal(ref, out)
    assert out.shape == (decomp.grid.n, len(surviving))


def test_degraded_cycles_share_one_pool(chaos_problem):
    """Alternating clean and degraded cycles through one thread pool:
    each matches its one-worker counterpart exactly."""
    store, states, net, y, decomp = chaos_problem
    serial = DistributedEnKF(radius_km=2.0, inflation=1.05)
    with AnalysisExecutor(workers=2) as ex:
        filt = DistributedEnKF(radius_km=2.0, inflation=1.05, executor=ex)
        clean_ref = serial.assimilate(decomp, states, net, y, rng=1)
        clean_out = filt.assimilate(decomp, states, net, y, rng=1)
        assert np.array_equal(clean_ref, clean_out)
        deg_ref, _ = serial.assimilate_degraded(
            decomp, states, net, y, dropped=(0, 7), rng=2
        )
        deg_out, _ = filt.assimilate_degraded(
            decomp, states, net, y, dropped=(0, 7), rng=2
        )
        assert np.array_equal(deg_ref, deg_out)
        # The degraded cycle must not poison the next clean one.
        again_ref = serial.assimilate(decomp, states, net, y, rng=3)
        again_out = filt.assimilate(decomp, states, net, y, rng=3)
        assert np.array_equal(again_ref, again_out)
