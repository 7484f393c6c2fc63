"""Microbenchmarks of the numerical kernels and substrates.

Not figures from the paper — these track the cost of the building blocks
(local analysis, modified Cholesky, global analysis, the DES engine, the
auto-tuner) so performance regressions in the library itself are visible.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    Decomposition,
    Grid,
    ObservationNetwork,
    SubDomain,
    analysis_gain_form,
    local_analysis,
    perturb_observations,
)
from repro.core.analysis import ObservationTerms, analysis_modified_cholesky
from repro.core.cholesky import (
    Stencil,
    modified_cholesky_inverse,
    neighbour_predecessors,
)
from repro.models import correlated_ensemble
from repro.parallel import GeometryCache
from repro.sim import Environment
from repro.tuning import autotune


def _setup_local(n_x=32, n_y=16, n_members=20, m=80, seed=0):
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(seed)
    states = correlated_ensemble(grid, n_members, length_scale_km=4.0, rng=rng)
    net = ObservationNetwork.random(grid, m=m, obs_error_std=0.3, rng=rng)
    y = rng.normal(size=net.m)
    ys = perturb_observations(y, net.obs_error_std, n_members, rng=rng)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=3, eta=3)
    return grid, states, net, ys, decomp


def test_local_analysis(benchmark):
    """One sub-domain local analysis (Eq. 6) with modified Cholesky."""
    grid, states, net, ys, decomp = _setup_local()
    sd = decomp.subdomain(1, 1)
    exp = states[sd.expansion_flat]
    benchmark(local_analysis, sd, exp, net, ys, 2.0)


def test_modified_cholesky(benchmark):
    """B̂⁻¹ estimation on a 200-point local ensemble."""
    grid, states, net, ys, decomp = _setup_local()
    sd = decomp.subdomain(1, 1)
    exp = states[sd.expansion_flat]
    ix, iy = sd.expansion_coords
    benchmark(modified_cholesky_inverse, exp, grid, ix, iy, 2.0)


def _benchmark_piece(n_cols, n_rows, n_members=24, seed=0):
    """One expansion box of the e2e benchmark: 25 km mesh, 60 km radius."""
    grid = Grid(n_x=144, n_y=72, dx_km=25.0, dy_km=25.0)
    ix = np.tile(np.arange(n_cols), n_rows)
    iy = np.repeat(np.arange(n_rows), n_cols)
    preds = neighbour_predecessors(grid, ix, iy, 60.0)
    rng = np.random.default_rng(seed)
    return grid, ix, iy, preds, rng.standard_normal((n_cols * n_rows, n_members))


def test_modified_cholesky_batched(benchmark):
    """The banded closing on a B=64 stack of 120-point pieces, 20
    observations each (a `small_pieces_static` bucket)."""
    _, _, _, preds, states = _benchmark_piece(20, 6)
    rng = np.random.default_rng(1)
    n_batch, (n, n_members), m = 64, states.shape, 20
    stack = rng.standard_normal((n_batch, n, n_members))
    sites = np.concatenate(
        [b * n + rng.choice(n, m, replace=False) for b in range(n_batch)]
    )
    h_block = sp.csr_matrix(
        (np.ones(sites.size), (np.arange(sites.size), sites)),
        shape=(n_batch * m, n_batch * n),
    )
    stencil = Stencil.from_predecessors(preds, n)
    r_diag = np.full(n_batch * m, 0.25)
    ys = rng.standard_normal((n_batch * m, n_members))
    benchmark(
        lambda: analysis_modified_cholesky(
            stack, stencil, ObservationTerms.build(h_block, r_diag), ys, 1e-2
        )
    )


def test_modified_cholesky_880_points(benchmark):
    """Per-piece B̂⁻¹ of one 880-point piece (`large_pieces_moving`)."""
    grid, ix, iy, preds, states = _benchmark_piece(40, 22)
    benchmark(
        modified_cholesky_inverse, states, grid, ix, iy, 60.0, 1e-2,
        predecessors=preds,
    )


def test_global_gain_form(benchmark):
    """Global stochastic analysis (Eq. 3) on a 512-point state."""
    grid, states, net, ys, _ = _setup_local()
    r_diag = np.full(net.m, net.obs_error_std**2)
    benchmark(analysis_gain_form, states, net.operator, r_diag, ys)


def test_des_engine_throughput(benchmark):
    """DES kernel: 10k processes x 10 timeouts (event-loop speed)."""

    def run():
        env = Environment()

        def proc(env):
            for _ in range(10):
                yield env.timeout(1.0)

        for _ in range(10_000):
            env.process(proc(env))
        env.run()
        return env.now

    assert benchmark(run) == 10.0


def test_autotuner_paper_scale(benchmark):
    """Algorithm 2 over a 12,000-processor budget at paper scale."""
    from repro.filters import PerfScenario
    from repro.cluster import MachineSpec

    params = PerfScenario.paper().cost_params(MachineSpec.tianhe2())
    result = benchmark(autotune, params, 12000, 1e-5)
    assert result is not None


def _local_piece(n_cols, n_rows):
    """What `compute_piece` hands `local_analysis` for one e2e-shaped piece.

    ~1 observation per 6 points; the geometry entry (restriction, stencil)
    is prepared, as it is for every piece the executor runs.
    """
    grid, _, _, _, states = _benchmark_piece(n_cols, n_rows)
    sd = SubDomain(grid, 0, 0, 2, n_cols - 2, 2, n_rows - 2, xi=2, eta=2)
    rng = np.random.default_rng(2)
    net = ObservationNetwork.random(
        grid, m=grid.n // 6, obs_error_std=0.5, rng=rng
    )
    ys = perturb_observations(
        rng.standard_normal(net.m), net.obs_error_std, states.shape[1], rng=rng
    )
    geometry, _ = GeometryCache().get(net, sd, 60.0)
    return (sd, states, None, ys, 60.0), {"ridge": 1e-2, "geometry": geometry}


@pytest.mark.parametrize(
    "n_cols, n_rows", [(20, 6), (20, 12), (40, 22)],
    ids=["120_points", "240_points", "880_points"],
)
def test_local_analysis_piece(benchmark, n_cols, n_rows):
    """Eq. 6 on one e2e-shaped piece, through the banded closing."""
    args, kwargs = _local_piece(n_cols, n_rows)
    benchmark(local_analysis, *args, **kwargs)
