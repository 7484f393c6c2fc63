"""The per-piece precision-form solve: oracle, memory guard, input boundary.

``analysis_precision_form`` has one body — CSR ``H`` and ``B̂⁻¹``, a
sparse ``A = B̂⁻¹ + Hᵀ R⁻¹ H``, one SuperLU factorisation.  This module
holds it, and ``local_analysis`` on top of it, to a deliberately *dense*
reference (``np.linalg.solve`` on ``A.toarray()``) on the piece shapes
the end-to-end benchmark runs; guards that no ``n × n`` dense array is
ever allocated on the way; and pins what the solve rejects, because
SuperLU itself carries NaN/inf through silently.

Every test runs with ``SparseEfficiencyWarning`` as an error, so a silent
CSR→CSC conversion or a structure change inside the solve fails loudly.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    Decomposition,
    Grid,
    InterpolatingObservationNetwork,
    ObservationNetwork,
    analysis_precision_form,
    local_analysis,
    modified_cholesky_inverse,
    perturb_observations,
)
from repro.models import correlated_ensemble

pytestmark = pytest.mark.filterwarnings(
    "error::scipy.sparse.SparseEfficiencyWarning"
)

#: agreement with the dense oracle; the absolute floor is for the few
#: near-zero entries of O(1) fields (solve accuracy is normwise)
RTOL, ATOL = 1e-9, 1e-11
RADIUS_KM = 60.0
HALO = 2
N_MEMBERS = 24
#: expansion boxes (columns, rows) of the end-to-end benchmark's pieces:
#: small_pieces_static, large_pieces_moving, io_bar / io_block
SHAPES = {"120pt": (20, 6), "880pt": (40, 22), "1156pt": (34, 34)}
NETWORKS = {
    "grid": ObservationNetwork,
    "interp": InterpolatingObservationNetwork,
}


def piece_problem(shape, network="grid", seed=0):
    """An interior sub-domain whose expansion is ``shape``, with its data.

    Returns ``(sd, xb, net, ys)``: the sub-domain, its ``(n̄, N)``
    expansion ensemble, the global network and the perturbed observations.
    """
    cols, rows = (s - 2 * HALO for s in SHAPES[shape])
    grid = Grid(n_x=4 * cols, n_y=4 * rows, dx_km=25.0, dy_km=25.0)
    rng = np.random.default_rng(seed)
    states = correlated_ensemble(
        grid, N_MEMBERS, length_scale_km=40.0, rng=rng
    )
    net = NETWORKS[network].random(
        grid, m=grid.n // 6, obs_error_std=0.5, rng=rng
    )
    ys = perturb_observations(
        rng.standard_normal(net.m), net.obs_error_std, N_MEMBERS, rng=rng
    )
    sd = Decomposition(grid, n_sdx=4, n_sdy=4, xi=HALO, eta=HALO).subdomain(1, 1)
    assert sd.exp_size == SHAPES[shape][0] * SHAPES[shape][1]
    return sd, states[sd.expansion_flat], net, ys


def local_system(sd, xb, net, ys, ridge):
    """The piece's ``(H, r_diag, Yˢ, B̂⁻¹)`` as the kernel derives them."""
    obs_positions, h_local = net.restrict_to_box(
        sd.exp_x_indices, sd.exp_y_indices
    )
    assert obs_positions.size > 0
    ix, iy = sd.expansion_coords
    b_inv = modified_cholesky_inverse(
        xb, sd.grid, ix, iy, radius_km=RADIUS_KM, ridge=ridge
    )
    r_diag = np.full(obs_positions.size, net.obs_error_std**2)
    return h_local, r_diag, ys[obs_positions], b_inv


def dense_oracle(xb, h, r_diag, ys, b_inv):
    """Eq. (5) with every operand dense and a general dense solve."""
    h, b_inv = h.toarray(), b_inv.toarray()
    ht_rinv = h.T / r_diag
    a = b_inv + ht_rinv @ h
    return xb + np.linalg.solve(a, ht_rinv @ (ys - h @ xb))


@pytest.mark.parametrize("ridge", [1e-2, 1e-3])
@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestDenseOracle:
    @pytest.mark.parametrize("supplied", [None, "dense", "csr"])
    def test_local_analysis(self, shape, network, ridge, supplied):
        sd, xb, net, ys = piece_problem(shape, network)
        system = local_system(sd, xb, net, ys, ridge)
        want = dense_oracle(xb, *system)
        b_inv = {None: None, "dense": system[3].toarray(), "csr": system[3]}
        got = local_analysis(
            sd, xb, net, ys, RADIUS_KM, b_inverse=b_inv[supplied], ridge=ridge
        )
        np.testing.assert_allclose(
            got, want[sd.interior_positions_in_expansion],
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_precision_form_any_operand_format(self, shape, network, ridge, fmt):
        sd, xb, net, ys = piece_problem(shape, network)
        h, r_diag, y_local, b_inv = local_system(sd, xb, net, ys, ridge)
        want = dense_oracle(xb, h, r_diag, y_local, b_inv)
        if fmt == "dense":
            h, b_inv = h.toarray(), b_inv.toarray()
        got = analysis_precision_form(xb, h, r_diag, y_local, b_inv)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def test_local_analysis_allocates_no_dense_n_by_n():
    """Peak traced memory of one 880-point piece stays below one ``n × n``
    float array — the densified ``B̂⁻¹`` alone would be ``8 n²`` bytes."""
    sd, xb, net, ys = piece_problem("880pt")
    local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=1e-2)  # warm imports
    tracemalloc.start()
    try:
        local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * sd.exp_size**2


class TestInputBoundary:
    """What the dense ``posv`` path rejected through SciPy's
    ``check_finite`` the single sparse path must reject itself."""

    @pytest.fixture()
    def system(self):
        sd, xb, net, ys = piece_problem("120pt")
        return (sd, xb, net, ys) + local_system(sd, xb, net, ys, 1e-2)

    def test_nan_background_in_local_analysis(self, system):
        sd, xb, net, ys = system[:4]
        xb = xb.copy()
        xb[7, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=1e-2)

    def test_nan_background_at_an_observed_point(self, system):
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        xb = xb.copy()
        xb[h.indices[0], 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)

    def test_non_finite_observations(self, system):
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        y_local = y_local.copy()
        y_local[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)

    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf])
    def test_r_diag_must_be_finite_and_positive(self, system, bad):
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        r_diag = r_diag.copy()
        r_diag[-1] = bad
        with pytest.raises(ValueError, match="r_diag"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_nan_in_supplied_b_inverse(self, system, fmt):
        sd, xb, net, ys, h, r_diag, y_local, b_inv = system
        b_inv = b_inv.toarray()
        b_inv[5, 5] = np.nan
        if fmt == "csr":
            b_inv = sp.csr_matrix(b_inv)
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)
        with pytest.raises(ValueError, match="non-finite"):
            local_analysis(sd, xb, net, ys, RADIUS_KM, b_inverse=b_inv)

    def test_singular_system_names_the_piece_size(self, system):
        _, xb, _, _, h, r_diag, y_local, _ = system
        n = xb.shape[0]
        # No prior precision at all: unobserved points have empty columns.
        with pytest.raises(ValueError, match=f"size {n} is singular"):
            analysis_precision_form(
                xb, h, r_diag, y_local, sp.csr_matrix((n, n))
            )
