"""The banded closing: one oracle, memory guards, input boundary.

Every local analysis — one piece or a bucket of them — closes through
``analysis_modified_cholesky``: the band of ``A = Lᵀ D⁻¹ L + Hᵀ R⁻¹ H``
assembled from the regression coefficients by stencil offset, one
``pbsv``.  ``analysis_precision_form`` puts a caller's own ``B̂⁻¹`` through
the same checked band solve.  This module holds both, and
``local_analysis`` on top, to one deliberately *dense* reference
(``np.linalg.solve`` on ``A.toarray()``): on the piece shapes the
end-to-end benchmark runs, alone and stacked; on a ragged bucket whose
padding must change nothing; on interpolating observations (off-diagonal
``Hᵀ R⁻¹ H``); on shuffled coordinates (bandwidth ≈ ``n``, the
dense-Cholesky degenerate case); on random valid stencils.  It guards
that no ``n × n`` (or ``B × n × n``) dense array is allocated on the way,
and pins what the solve rejects, because ``pbsv`` runs with
``check_finite=False`` and would carry NaN/inf through silently.

Every test runs with ``SparseEfficiencyWarning`` as an error, so a silent
format conversion or a structure change inside the solve fails loudly.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.analysis as core_analysis
from repro.core import (
    Decomposition,
    Grid,
    InterpolatingObservationNetwork,
    ObservationNetwork,
    analysis_modified_cholesky,
    analysis_precision_form,
    local_analysis,
    modified_cholesky_inverse,
    perturb_observations,
)
from repro.core.cholesky import Stencil, neighbour_predecessors
from repro.filters import PEnKF, SEnKF
from repro.models import correlated_ensemble
from repro.parallel import AnalysisExecutor

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


def piece_stencil(sd):
    ix, iy = sd.expansion_coords
    return Stencil.from_predecessors(
        neighbour_predecessors(sd.grid, ix, iy, RADIUS_KM), sd.exp_size
    )


def dense_oracle(xb, h, r_diag, ys, b_inv):
    """Eq. (5) with every operand dense and a general dense solve."""
    h = h.toarray() if sp.issparse(h) else np.asarray(h)
    b_inv = b_inv.toarray() if sp.issparse(b_inv) else np.asarray(b_inv)
    ht_rinv = h.T / r_diag
    a = b_inv + ht_rinv @ h
    return xb + np.linalg.solve(a, ht_rinv @ (ys - h @ xb))


def line_inverse(xb, predecessors, ridge):
    """``B̂⁻¹`` of one ensemble under an explicit stencil (the
    coordinates are then unused: any grid of the right size will do)."""
    n = xb.shape[0]
    return modified_cholesky_inverse(
        xb, Grid(n_x=n, n_y=1), np.arange(n), np.zeros(n, int), 1.0,
        ridge=ridge, predecessors=predecessors,
    )


@pytest.mark.parametrize("ridge", [1e-2, 1e-3])
@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestDenseOracle:
    @pytest.mark.parametrize("supplied", [None, "dense", "csr"])
    def test_local_analysis(self, shape, network, ridge, supplied):
        """The interior of Eq. 6: ``local_analysis`` (``None``: the banded
        modified-Cholesky closing) and Eq. 5's ``analysis_precision_form``
        on the restricted local system with the same ``B̂⁻¹``, dense or
        CSR, both against the dense oracle."""
        sd, xb, net, ys = piece_problem(shape, network)
        system = local_system(sd, xb, net, ys, ridge)
        want = dense_oracle(xb, *system)
        if supplied is None:
            got = local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=ridge)
        else:
            h, r_diag, y_local, b_inv = system
            if supplied == "dense":
                b_inv = b_inv.toarray()
            got = analysis_precision_form(xb, h, r_diag, y_local, b_inv)[
                sd.interior_positions_in_expansion
            ]
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

    def test_closing_alone_and_stacked(self, shape, network, ridge):
        """``B = 1`` and a stack of three ensembles over one block-diagonal
        ``H``: every slice equals its own dense solve."""
        sd, xb, net, ys = piece_problem(shape, network)
        h, r_diag, y_local, _ = local_system(sd, xb, net, ys, ridge)
        stencil = piece_stencil(sd)
        rng = np.random.default_rng(3)
        stack = np.stack(
            [xb, xb[:, rng.permutation(N_MEMBERS)], 0.5 * xb + 1.0]
        )
        want = [
            dense_oracle(
                member, h, r_diag, y_local,
                line_inverse(member, stencil.predecessors, ridge),
            )
            for member in stack
        ]
        one = analysis_modified_cholesky(
            stack[:1], stencil, h, r_diag, y_local, ridge=ridge
        )
        np.testing.assert_allclose(one[0], want[0], rtol=RTOL, atol=ATOL)
        three = analysis_modified_cholesky(
            stack, stencil, sp.block_diag([h] * 3, format="csr"),
            np.tile(r_diag, 3), np.tile(y_local, (3, 1)), ridge=ridge,
        )
        np.testing.assert_allclose(three, want, rtol=RTOL, atol=ATOL)


class TestClosingShapes:
    """What the benchmark pieces never exercise."""

    def test_interpolating_rows_put_off_diagonals_in_the_band(self):
        """The premise of ``TestDenseOracle``'s ``interp`` cases: bilinear
        rows make ``Hᵀ R⁻¹ H`` reach off the diagonal."""
        sd, xb, net, ys = piece_problem("120pt", "interp")
        h, r_diag, _, _ = local_system(sd, xb, net, ys, 1e-2)
        assert (np.diff(h.indptr) == 4).any()  # bilinear rows
        gram = (h.T @ h).tocoo()
        assert (gram.row != gram.col).any()

    def test_ragged_bucket_padding_is_an_exact_noop(self):
        """Two pieces with different observation counts, the shorter
        padded with empty ``H`` rows, unit ``R`` and zero observations:
        the padded block system gives what the unpadded one gives."""
        sd, xb, net, ys = piece_problem("120pt")
        h, r_diag, y_local, _ = local_system(sd, xb, net, ys, 1e-2)
        stencil = piece_stencil(sd)
        m, short = h.shape[0], h.shape[0] - 7
        stack = np.stack([xb, xb[:, ::-1]])

        def blocks(pad):
            h_short = sp.csr_matrix(h[:short], copy=True)
            h_short.resize((short + pad, h.shape[1]))
            return (
                sp.block_diag([h, h_short], format="csr"),
                np.concatenate([r_diag, r_diag[:short], np.ones(pad)]),
                np.concatenate(
                    [y_local, y_local[:short], np.zeros((pad, N_MEMBERS))]
                ),
            )

        unpadded = analysis_modified_cholesky(stack, stencil, *blocks(0), ridge=1e-2)
        padded = analysis_modified_cholesky(
            stack, stencil, *blocks(m - short), ridge=1e-2
        )
        np.testing.assert_allclose(padded, unpadded, rtol=1e-13, atol=1e-14)
        want = dense_oracle(
            stack[1], h[:short], r_diag[:short], y_local[:short],
            line_inverse(stack[1], stencil.predecessors, 1e-2),
        )
        np.testing.assert_allclose(padded[1], want, rtol=RTOL, atol=ATOL)

    def test_shuffled_coordinates_degrade_to_a_full_band(self):
        """Coordinates in random order: predecessors are scattered over
        the whole row, the band is as wide as the matrix, and the answer
        is still the dense solve's."""
        grid = Grid(n_x=12, n_y=8, dx_km=25.0, dy_km=25.0)
        rng = np.random.default_rng(5)
        order = rng.permutation(grid.n)
        ix, iy = order % grid.n_x, order // grid.n_x
        predecessors = neighbour_predecessors(grid, ix, iy, RADIUS_KM)
        stencil = Stencil.from_predecessors(predecessors, grid.n)
        assert stencil.bandwidth > 0.8 * grid.n
        xb = correlated_ensemble(grid, N_MEMBERS, 40.0, rng=rng)[order]
        m = 20
        h = sp.csr_matrix(
            (np.ones(m), (np.arange(m), rng.choice(grid.n, m, replace=False))),
            shape=(m, grid.n),
        )
        r_diag = np.full(m, 0.25)
        ys = rng.standard_normal((m, N_MEMBERS))
        got = analysis_modified_cholesky(
            xb[None], stencil, h, r_diag, ys, ridge=1e-2
        )[0]
        b_inv = modified_cholesky_inverse(
            xb, grid, ix, iy, RADIUS_KM, ridge=1e-2
        )
        np.testing.assert_allclose(
            got, dense_oracle(xb, h, r_diag, ys, b_inv), rtol=RTOL, atol=ATOL
        )

    def test_arbitrary_dense_spd_b_inverse(self):
        """The public precision form takes any SPD matrix, banded or not."""
        rng = np.random.default_rng(6)
        n, m = 60, 15
        root = rng.standard_normal((n, n))
        b_inv = root @ root.T + n * np.eye(n)
        xb = rng.standard_normal((n, N_MEMBERS))
        h = rng.standard_normal((m, n))
        r_diag = 0.1 + rng.random(m)
        ys = rng.standard_normal((m, N_MEMBERS))
        want = dense_oracle(xb, h, r_diag, ys, b_inv)
        for operand in (b_inv, sp.csr_matrix(b_inv)):
            np.testing.assert_allclose(
                analysis_precision_form(xb, h, r_diag, ys, operand), want,
                rtol=RTOL, atol=ATOL,
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 16),
        n_members=st.integers(3, 8),
        n_batch=st.sampled_from([1, 3]),
    )
    def test_random_valid_stencils(self, seed, n, n_members, n_batch):
        """True predecessors only, otherwise arbitrary: empty rows,
        ragged sizes, any offsets."""
        rng = np.random.default_rng(seed)
        predecessors = []
        for i in range(n):
            size = int(rng.integers(0, min(i, n_members) + 1))
            predecessors.append(np.sort(rng.choice(i, size, replace=False)))
        stencil = Stencil.from_predecessors(predecessors, n)
        stack = rng.standard_normal((n_batch, n, n_members))
        m = int(rng.integers(1, n + 1))
        hs = [rng.standard_normal((m, n)) for _ in range(n_batch)]
        r_diag = 0.1 + rng.random(n_batch * m)
        ys = rng.standard_normal((n_batch * m, n_members))
        got = analysis_modified_cholesky(
            stack, stencil, sp.block_diag(hs, format="csr"), r_diag, ys,
            ridge=1e-2,
        )
        for b in range(n_batch):
            rows = slice(b * m, (b + 1) * m)
            want = dense_oracle(
                stack[b], hs[b], r_diag[rows], ys[rows],
                line_inverse(stack[b], predecessors, 1e-2),
            )
            np.testing.assert_allclose(got[b], want, rtol=RTOL, atol=1e-10)


def test_local_analysis_allocates_no_dense_n_by_n():
    """Peak traced memory of one 880-point piece stays below one ``n × n``
    float array — a densified ``B̂⁻¹`` alone would be ``8 n²`` bytes."""
    sd, xb, net, ys = piece_problem("880pt")
    local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=1e-2)  # warm imports
    tracemalloc.start()
    try:
        local_analysis(sd, xb, net, ys, RADIUS_KM, ridge=1e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * sd.exp_size**2


def test_vectorized_assimilate_footprint_is_bounded_by_a_run():
    """One warm one-worker S-EnKF ``assimilate`` on the end-to-end
    benchmark's ``small_pieces_static`` shape (256 pieces of 20 × 6
    points, 20 observations per sub-domain) keeps its traced peak within
    24 MiB: buckets are analysed in runs of pieces, so the regressions'
    predecessor gathers and Gram stacks no longer grow with the bucket
    (analysing each bucket whole traced 68 MiB here).  ``w`` workers
    hold about ``w`` runs (``tests/test_vectorized.py`` checks 1, 2, 4)."""
    grid = Grid(n_x=128, n_y=64, dx_km=25.0, dy_km=25.0)
    decomp = Decomposition(grid, n_sdx=8, n_sdy=8, xi=HALO, eta=HALO)
    rng = np.random.default_rng(3)
    states = correlated_ensemble(grid, N_MEMBERS, 40.0, rng=rng)
    cells = [
        (sd, rng.choice(sd.size, size=20, replace=False)) for sd in decomp
    ]
    net = ObservationNetwork(
        grid,
        np.concatenate([sd.ix0 + c % sd.n_cols for sd, c in cells]),
        np.concatenate([sd.iy0 + c // sd.n_cols for sd, c in cells]),
        0.5,
    )
    y = rng.standard_normal(net.m)
    with AnalysisExecutor(workers=1) as ex:
        filt = SEnKF(radius_km=RADIUS_KM, n_layers=4, ridge=1e-2, executor=ex)
        filt.assimilate(decomp, states, net, y, rng=1)  # warm the cache
        tracemalloc.start()
        try:
            filt.assimilate(decomp, states, net, y, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_vectorized_enkf_factorises_bands_not_dense_stacks(monkeypatch):
    """Shape spy on an S-EnKF cycle (64 pieces of 20 × 6 and
    20 × 4 points): every run of a bucket's pieces is closed by one banded
    solve over its ``B · n̄`` stacked points at the stencil's bandwidth,
    and the only dense solves are the regressions' ``s × s`` Gram
    systems — no ``(B, n̄, n̄)`` operand reaches LAPACK."""
    banded, dense = [], []
    real_banded, real_solve = core_analysis._solve_band, np.linalg.solve

    def spy_banded(band, rhs):
        banded.append((band.shape, rhs.shape))
        return real_banded(band, rhs)

    def spy_solve(a, b):
        dense.append(a.shape)
        return real_solve(a, b)

    monkeypatch.setattr(core_analysis, "_solve_band", spy_banded)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    grid = Grid(n_x=128, n_y=16, dx_km=25.0, dy_km=25.0)
    decomp = Decomposition(grid, n_sdx=8, n_sdy=2, xi=HALO, eta=HALO)
    rng = np.random.default_rng(8)
    states = correlated_ensemble(grid, N_MEMBERS, 40.0, rng=rng)
    net = ObservationNetwork.random(grid, m=320, obs_error_std=0.5, rng=rng)
    with AnalysisExecutor() as ex:
        SEnKF(
            radius_km=RADIUS_KM, n_layers=4, ridge=1e-2, executor=ex
        ).assimilate(decomp, states, net, rng.standard_normal(net.m), rng=1)

    width = 20  # expansion columns; the stencil reaches two rows back
    assert banded and sum(b[0] for _, b in banded) == 48 * 120 + 16 * 80
    for (rows, points), rhs in banded:
        assert rows == 2 * width + 1 + 1 and rhs == (points, N_MEMBERS)
    assert dense and max(shape[-1] for shape in dense) <= 10


class TestInputBoundary:
    """``pbsv`` runs unchecked, so the closing rejects bad input itself:
    always a ``ValueError``, never a LAPACK error, never a silent NaN."""

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
        sd, xb, _, _, h, r_diag, y_local, b_inv = system
        y_local = y_local.copy()
        y_local[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)
        with pytest.raises(ValueError, match="non-finite"):
            analysis_modified_cholesky(
                xb[None], piece_stencil(sd), h, r_diag, y_local, ridge=1e-2
            )

    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf])
    def test_r_diag_must_be_finite_and_positive(self, system, bad):
        sd, xb, _, _, h, r_diag, y_local, b_inv = system
        r_diag = r_diag.copy()
        r_diag[-1] = bad
        with pytest.raises(ValueError, match="r_diag"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)
        with pytest.raises(ValueError, match="r_diag"):
            analysis_modified_cholesky(
                xb[None], piece_stencil(sd), h, r_diag, y_local, ridge=1e-2
            )

    @pytest.mark.parametrize("fmt", ["dense", "csr"])
    def test_nan_in_supplied_b_inverse(self, system, fmt):
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        b_inv = b_inv.toarray()
        b_inv[5, 5] = np.nan
        if fmt == "csr":
            b_inv = sp.csr_matrix(b_inv)
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)

    def test_nan_above_the_diagonal_of_a_supplied_b_inverse(self, system):
        """Only the lower triangle is factorised; the upper is still read."""
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        b_inv = b_inv.toarray()
        b_inv[2, 9] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            analysis_precision_form(xb, h, r_diag, y_local, b_inv)

    def test_singular_system_names_the_piece_size(self, system):
        _, xb, _, _, h, r_diag, y_local, _ = system
        n = xb.shape[0]
        # No prior precision at all: unobserved points have empty columns.
        with pytest.raises(
            ValueError, match=f"size {n} is not positive definite"
        ):
            analysis_precision_form(
                xb, h, r_diag, y_local, sp.csr_matrix((n, n))
            )

    def test_indefinite_supplied_b_inverse(self, system):
        _, xb, _, _, h, r_diag, y_local, b_inv = system
        n = xb.shape[0]
        flipped = b_inv.toarray()
        unobserved = np.setdiff1d(np.arange(n), h.indices)[0]
        flipped[unobserved, unobserved] *= -1.0
        with pytest.raises(
            ValueError, match=f"size {n} is not positive definite"
        ):
            analysis_precision_form(xb, h, r_diag, y_local, flipped)


#: smoke-size analogues of the end-to-end benchmark's four workloads:
#: (grid n_x, n_y, n_sdx, n_sdy, n_layers, observations, side of the box
#: in one sub-domain that holds them (None: spread evenly), block read)
WORKLOAD_SHAPES = {
    "small_pieces_static": (64, 32, 4, 4, 4, 320, None, False),
    "large_pieces_moving": (48, 24, 2, 2, 1, 180, None, False),
    "io_bar": (120, 60, 8, 4, 1, 32, 8, False),
    "io_block": (120, 60, 8, 4, 1, 32, 8, True),
}


def captured_bands(monkeypatch, workload):
    """Every ``(band, rhs)`` the closing is handed during one cycle of
    ``workload`` under ``auto`` with two workers."""
    n_x, n_y, n_sdx, n_sdy, n_layers, m, box, block = WORKLOAD_SHAPES[workload]
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=25.0, dy_km=25.0)
    decomp = Decomposition(grid, n_sdx, n_sdy, xi=HALO, eta=HALO)
    rng = np.random.default_rng(36)
    states = correlated_ensemble(grid, 12, 40.0, rng=rng)
    if box is None:
        cells = [(sd, rng.choice(sd.size, size=m // decomp.n_subdomains,
                                 replace=False)) for sd in decomp]
    else:
        sd = decomp.subdomain(n_sdx // 2, n_sdy // 2)
        inset_x, inset_y = (sd.n_cols - box) // 2, (sd.n_rows - box) // 2
        picked = rng.choice(box * box, size=m, replace=False)
        cells = [(sd, (inset_y + picked // box) * sd.n_cols
                  + inset_x + picked % box)]
    net = ObservationNetwork(
        grid,
        np.concatenate([sd.ix0 + c % sd.n_cols for sd, c in cells]),
        np.concatenate([sd.iy0 + c // sd.n_cols for sd, c in cells]),
        0.5,
    )
    captured, real = [], core_analysis._solve_band

    def spy(band, rhs):
        captured.append((band.copy(), rhs.copy()))
        return real(band, rhs)

    monkeypatch.setattr(core_analysis, "_solve_band", spy)
    common = dict(radius_km=RADIUS_KM, inflation=1.05, ridge=1e-2, workers=2)
    filt = PEnKF(**common) if block else SEnKF(n_layers=n_layers, **common)
    try:
        filt.assimilate(decomp, states, net, rng.standard_normal(net.m), rng=1)
    finally:
        filt.close()
    monkeypatch.undo()
    assert captured
    return captured


class TestLapackCall:
    """The closing calls LAPACK ``dpbsv`` through SciPy's Cython pointer,
    not SciPy's wrapper; only the GIL handling may differ, not a bit of
    the result."""

    @pytest.mark.parametrize("workload", sorted(WORKLOAD_SHAPES))
    def test_bit_identical_to_solveh_banded(self, monkeypatch, workload):
        for band, rhs in captured_bands(monkeypatch, workload):
            assert band.shape[0] > 2  # SciPy's pbsv path, not ?ptsv
            want = scipy.linalg.solveh_banded(band, rhs, lower=True)
            assert np.array_equal(core_analysis._solve_band(band, rhs), want)

    @pytest.mark.parametrize("kd", [0, 1])
    def test_narrow_bands_match_a_dense_solve(self, kd):
        """SciPy sends 2-row bands to ``?ptsv``, so on ``kd = 1`` the two
        may differ in the last bit (1e-16 seen); the dense solve is the
        oracle here, for ``kd = 0`` and ``kd = 1`` alike."""
        n = 40
        rng = np.random.default_rng(kd)
        band = np.zeros((kd + 1, n))
        band[0] = 2.0 + rng.random(n)
        if kd:
            band[1, :-1] = rng.uniform(-0.9, 0.9, n - 1)
        dense = np.diag(band[0])
        if kd:
            dense += np.diag(band[1, :-1], -1) + np.diag(band[1, :-1], 1)
        rhs = rng.standard_normal((n, N_MEMBERS))
        got = core_analysis._solve_band(band, rhs)
        np.testing.assert_allclose(
            got, np.linalg.solve(dense, rhs), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("rhs_shape", [(29, 3), (31, 3), (30,)])
    def test_mismatched_shapes_never_reach_lapack(self, rhs_shape):
        band = np.vstack([np.full(30, 4.0), np.full(30, -1.0)])
        with pytest.raises(ValueError, match="do not match"):
            core_analysis._solve_band(band, np.ones(rhs_shape))

    def test_inputs_are_left_as_given(self):
        n = 30
        band = np.vstack([np.full(n, 4.0), np.full(n, -1.0)])
        rhs = np.ones((n, 3))
        before = band.copy(), rhs.copy()
        core_analysis._solve_band(band, rhs)
        assert np.array_equal(band, before[0])
        assert np.array_equal(rhs, before[1])
