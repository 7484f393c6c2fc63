"""The modified-Cholesky kernel against an independent naive reference.

:mod:`repro.core.cholesky` solves every regression of a stack as one
block of one banded ``pbsv`` and assembles ``Lᵀ D⁻¹ L`` as a band by one
ordered scatter-add; the reference below is the plain definition — one
row at a time, one small solve each, a dense product, a pairwise radius
test for the stencil — and lives only here.  Both forms of the estimate
(``modified_cholesky_inverse``: one piece, as CSR; the
``(B · n, bandwidth + 1)`` band of a stack that
``analysis_modified_cholesky`` factorises) must agree with it to the
repo's equivalence contract, rtol 1e-10 / atol 1e-11.  The per-group
dense solves and the pair loop the kernel replaced are held as oracles
in ``tests.reference``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.analysis as core_analysis
import repro.core.cholesky as cholesky
from repro.core import Decomposition, ObservationNetwork
from repro.core.analysis import ObservationTerms, analysis_modified_cholesky
from repro.core.cholesky import (
    MIN_VARIANCE,
    Stencil,
    _regress_rows,
    modified_cholesky_inverse,
    neighbour_predecessors,
    precision_band,
)
from repro.core.grid import Grid
from repro.parallel import AnalysisPlan, KIND_ENKF, run_vectorized
from repro.parallel import vectorized
from tests.reference import dense_lower, group_regressions, pair_loop_band

RTOL, ATOL = 1e-10, 1e-11


# ---------------------------------------------------------------------------
# The reference: the definition, row by row
# ---------------------------------------------------------------------------
def reference_predecessors(grid, ix, iy, radius_km):
    """``j < i`` within the radius of ``i``, by a pairwise test per row."""
    ix, iy = np.asarray(ix), np.asarray(iy)
    preds = []
    for i in range(ix.size):
        dx = np.abs(ix[:i] - ix[i])
        if grid.periodic_x:
            dx = np.minimum(dx, grid.n_x - dx)
        dy = np.abs(iy[:i] - iy[i])
        dist = np.hypot(dx * grid.dx_km, dy * grid.dy_km)
        preds.append(np.nonzero(dist <= radius_km)[0])
    return preds


def reference_inverse(states, predecessors, ridge=1e-8, min_variance=1e-12):
    """Dense ``B̂⁻¹ = Lᵀ D⁻¹ L`` of one ``(n, N)`` ensemble, row by row."""
    u = np.asarray(states, dtype=float)
    u = u - u.mean(axis=1, keepdims=True)
    n, n_members = u.shape
    dof = max(n_members - 1, 1)
    lower = np.eye(n)
    d = np.empty(n)
    for i in range(n):
        p = np.asarray(predecessors[i], dtype=int)
        resid = u[i]
        if p.size:
            xp = u[p]
            gram = xp @ xp.T
            gram[np.diag_indices_from(gram)] += ridge * (
                np.trace(gram) / p.size + 1.0
            )
            beta = np.linalg.solve(gram, xp @ u[i])
            lower[i, p] = -beta
            resid = u[i] - beta @ xp
        d[i] = max(float(resid @ resid) / dof, min_variance)
    return lower.T @ (lower / d[:, None])


def box_coords(n_cols, n_rows, x0=0, y0=0, n_x=None):
    """Row-major ``(ix, iy)`` of an expansion box, wrapped at ``n_x``."""
    xs = np.arange(x0, x0 + n_cols)
    if n_x is not None:
        xs = xs % n_x
    ys = np.arange(y0, y0 + n_rows)
    return np.tile(xs, n_rows), np.repeat(ys, n_cols)


def stacked_inverse(stack, preds, ridge=1e-8):
    """Dense ``(B, n, n)`` ``B̂⁻¹`` of a stack, densified *here* from the
    band the closing assembles."""
    n_batch, n, _ = stack.shape
    stencil = Stencil.from_predecessors(preds, n)
    u = stack - stack.mean(axis=2, keepdims=True)
    lower, d = _regress_rows(u, stencil, ridge, MIN_VARIANCE)
    band = precision_band(stencil, lower, d)
    assert band.shape == (n_batch * n, stencil.bandwidth + 1)
    band = band.reshape(n_batch, n, -1)
    dense = np.zeros((n_batch, n, n))
    for k in range(band.shape[2]):
        j = np.arange(n - k)
        dense[:, j + k, j] = dense[:, j, j + k] = band[:, : n - k, k]
    return dense


# ---------------------------------------------------------------------------
# Stencil builder
# ---------------------------------------------------------------------------
#: 25 km mesh, 60 km radius — the benchmark's localization
MESH = dict(dx_km=25.0, dy_km=25.0)

STENCIL_CASES = {
    # the four expansion shapes benchmarks/e2e analyses
    "small_20x6": (Grid(n_x=128, n_y=64, **MESH), box_coords(20, 6, 30, 10)),
    "large_40x22": (Grid(n_x=144, n_y=72, **MESH), box_coords(40, 22, 34, 16)),
    "large_polar_40x20": (Grid(n_x=144, n_y=72, **MESH), box_coords(40, 20, 34, 0)),
    "io_34x34": (Grid(n_x=600, n_y=300, **MESH), box_coords(34, 34, 118, 58)),
    # wraps the periodic seam: columns 126, 127, 0, 1, ...
    "seam_20x6": (Grid(n_x=128, n_y=64, **MESH),
                  box_coords(20, 6, 126, 10, n_x=128)),
    "single_row": (Grid(n_x=64, n_y=1, **MESH), box_coords(64, 1)),
    # a non-periodic grid: no offsets across the seam
    "flat_12x3": (Grid(n_x=12, n_y=3, periodic_x=False, **MESH),
                  box_coords(12, 3)),
}


def assert_same_stencil(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestStencilBuilder:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_equals_pairwise_reference(self, case):
        grid, (ix, iy) = STENCIL_CASES[case]
        assert_same_stencil(
            neighbour_predecessors(grid, ix, iy, 60.0),
            reference_predecessors(grid, ix, iy, 60.0),
        )

    def test_benchmark_stencils_have_ten_sizes(self):
        """The row-group count the kernel's cost rests on."""
        grid, (ix, iy) = STENCIL_CASES["large_40x22"]
        sizes = {p.size for p in neighbour_predecessors(grid, ix, iy, 60.0)}
        assert len(sizes) == 10 and max(sizes) == 10

    def test_benchmark_stencils_have_eleven_sub_diagonals(self):
        """What the band assembly's cost rests on: ``L`` of a row-major
        40-column expansion is the unit diagonal and ten sub-diagonals."""
        grid, (ix, iy) = STENCIL_CASES["large_40x22"]
        stencil = Stencil.from_predecessors(
            neighbour_predecessors(grid, ix, iy, 60.0), ix.size
        )
        assert stencil.offsets.tolist() == [
            0, 1, 2, 38, 39, 40, 41, 42, 79, 80, 81,
        ]
        assert stencil.bandwidth == 81

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 40),
        periodic=st.booleans(),
        radius=st.floats(0.5, 4.0),
    )
    def test_any_order_repeats_and_wrap(self, seed, n, periodic, radius):
        """Unordered, repeated coordinates on a small periodic grid."""
        rng = np.random.default_rng(seed)
        grid = Grid(n_x=9, n_y=5, dx_km=1.0, dy_km=1.5, periodic_x=periodic)
        ix = rng.integers(0, grid.n_x, size=n)
        iy = rng.integers(0, grid.n_y, size=n)
        assert_same_stencil(
            neighbour_predecessors(grid, ix, iy, radius),
            reference_predecessors(grid, ix, iy, radius),
        )

    def test_integral_float_coordinates_accepted(self):
        grid = Grid(n_x=10, n_y=1, periodic_x=False)
        preds = neighbour_predecessors(grid, np.arange(10.0), np.zeros(10), 2.0)
        assert_same_stencil(
            preds,
            reference_predecessors(grid, np.arange(10), np.zeros(10, int), 2.0),
        )

    def test_fractional_coordinates_rejected(self):
        grid = Grid(n_x=10, n_y=1)
        with pytest.raises(ValueError, match="integer-valued"):
            neighbour_predecessors(grid, np.array([0.0, 0.5]), np.zeros(2), 2.0)


# ---------------------------------------------------------------------------
# Both entry points against the reference
# ---------------------------------------------------------------------------
def random_stencil(rng, n, max_size):
    """Row ``i`` gets a random subset of ``range(i)``; some rows stay empty."""
    preds = []
    for i in range(n):
        size = int(rng.integers(0, min(i, max_size) + 1))
        preds.append(np.sort(rng.choice(i, size=size, replace=False)))
    return preds


def assert_both_match_reference(stack, preds, ridge, grid=None, coords=None):
    """Per-piece (CSR) and stacked (band) results vs the reference."""
    n = stack.shape[1]
    grid = grid if grid is not None else Grid(n_x=max(n, 1), n_y=1)
    ix, iy = coords if coords is not None else (np.arange(n), np.zeros(n, int))
    batched = stacked_inverse(stack, preds, ridge=ridge)
    for b, states in enumerate(stack):
        want = reference_inverse(states, preds, ridge=ridge)
        csr = modified_cholesky_inverse(
            states, grid, ix, iy, 1.0, ridge=ridge, predecessors=preds
        )
        assert sp.issparse(csr) and csr.format == "csr"
        assert np.allclose(csr.toarray(), want, rtol=RTOL, atol=ATOL)
        assert np.allclose(batched[b], want, rtol=RTOL, atol=ATOL)


class TestAgainstReference:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 14),
        n_members=st.integers(3, 7),
        n_batch=st.sampled_from([1, 3]),
    )
    def test_random_stencils(self, seed, n, n_members, n_batch):
        """Empty rows, ragged sizes and ``s > N - 1`` at ``ridge=1e-2``."""
        rng = np.random.default_rng(seed)
        preds = random_stencil(rng, n, max_size=n_members + 3)
        stack = rng.standard_normal((n_batch, n, n_members))
        assert_both_match_reference(stack, preds, ridge=1e-2)

    def test_every_row_a_different_size(self):
        """Row ``i`` conditions on all of ``0..i-1``: ``n - 1`` groups of one."""
        rng = np.random.default_rng(11)
        n = 9
        preds = [np.arange(i) for i in range(n)]
        assert_both_match_reference(
            rng.standard_normal((3, n, 5)), preds, ridge=1e-2
        )

    def test_no_predecessors_at_all(self):
        """``L = I``: the estimate is the inverse of the floored variances."""
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((3, 4, 6))
        preds = [np.array([], dtype=int)] * 4
        assert_both_match_reference(stack, preds, ridge=1e-2)
        out = stacked_inverse(stack, preds)
        assert np.allclose(
            out, np.eye(4) / np.var(stack, axis=2, ddof=1)[:, :, None]
        )

    def test_single_piece_is_slice_of_the_stack(self):
        rng = np.random.default_rng(13)
        preds = random_stencil(rng, 12, max_size=6)
        stack = rng.standard_normal((3, 12, 8))
        one = stacked_inverse(stack[:1], preds, ridge=1e-3)
        three = stacked_inverse(stack, preds, ridge=1e-3)
        assert np.allclose(one[0], three[0], rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("case", ["large_40x22", "io_34x34"])
    def test_benchmark_piece_sizes(self, case):
        """880 and 1156 points: the shapes tier-1 never reached before."""
        grid, (ix, iy) = STENCIL_CASES[case]
        preds = neighbour_predecessors(grid, ix, iy, 60.0)
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((1, ix.size, 24))
        assert_both_match_reference(
            stack, preds, ridge=1e-2, grid=grid, coords=(ix, iy)
        )

    def test_builds_its_own_stencil_when_none_is_given(self):
        grid, (ix, iy) = STENCIL_CASES["small_20x6"]
        states = np.random.default_rng(15).standard_normal((ix.size, 10))
        got = modified_cholesky_inverse(states, grid, ix, iy, 60.0, ridge=1e-2)
        want = reference_inverse(
            states, reference_predecessors(grid, ix, iy, 60.0), ridge=1e-2
        )
        assert np.allclose(got.toarray(), want, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# Input boundary: a stencil must name true predecessors only
# ---------------------------------------------------------------------------
BAD_STENCILS = {
    "not_a_predecessor": [[], [0], [2]],  # j == i
    "later_row": [[], [2], [0]],  # j > i
    "negative": [[], [-1], [0, 1]],
    "out_of_range": [[], [0], [7]],
    "first_row_not_empty": [[0], [0], [1]],
}


class TestStencilValidation:
    grid = Grid(n_x=3, n_y=1)
    states = np.random.default_rng(16).standard_normal((3, 5))

    @pytest.mark.parametrize("name", sorted(BAD_STENCILS))
    def test_per_piece_rejects(self, name):
        preds = [np.array(p, dtype=int) for p in BAD_STENCILS[name]]
        with pytest.raises(ValueError, match="not a predecessor"):
            modified_cholesky_inverse(
                self.states, self.grid, np.arange(3), np.zeros(3, int), 1.0,
                predecessors=preds,
            )

    @pytest.mark.parametrize("name", sorted(BAD_STENCILS))
    def test_batched_rejects(self, name):
        """No :class:`Stencil` — what the closing takes — can be built."""
        preds = [np.array(p, dtype=int) for p in BAD_STENCILS[name]]
        with pytest.raises(ValueError, match="not a predecessor"):
            Stencil.from_predecessors(preds, 3)

    def test_wrong_length_rejected_by_both(self):
        preds = [np.array([], dtype=int)] * 2
        with pytest.raises(ValueError, match="2 entries for n=3"):
            modified_cholesky_inverse(
                self.states, self.grid, np.arange(3), np.zeros(3, int), 1.0,
                predecessors=preds,
            )
        with pytest.raises(ValueError, match="2 entries for n=3"):
            Stencil.from_predecessors(preds, 3)
        with pytest.raises(ValueError, match="2 entries for n=3"):
            analysis_modified_cholesky(
                self.states[None], Stencil.from_predecessors(preds, 2),
                ObservationTerms.build(np.eye(3), np.ones(3)), np.zeros((3, 5)),
            )


# ---------------------------------------------------------------------------
# The regressions as one band, against the per-group dense solves
# ---------------------------------------------------------------------------
@st.composite
def regression_problems(draw):
    """A random valid stencil over ``n`` rows and a ``(B, n, N)`` anomaly
    stack; predecessor counts reach past ``N − 1``."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_members = draw(st.integers(2, 8))
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(seed)
    preds = random_stencil(rng, n, max_size=n_members + 4)
    u = rng.standard_normal((draw(st.sampled_from([1, 3])), n, n_members))
    return preds, u - u.mean(axis=2, keepdims=True)


class TestBandRegressions:
    """``_regress_rows`` closes every regression of a stack as one diagonal
    block of one SPD band (one ``pbsv``); ``tests.reference`` keeps the
    per-group ``np.linalg.solve`` formula it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(problem=regression_problems(), ridge=st.sampled_from([1e-8, 1e-2]))
    def test_matches_the_per_group_solves(self, problem, ridge):
        """Variances and residuals ``L u`` at rtol 1e-10 on every row.
        Coefficients too, on every row at ``ridge = 1e-2`` and on the rows
        with ``s < N − 1`` at ``1e-8``: a row with ``s >= N − 1``
        predecessors has a rank-deficient Gram, and at that ridge its
        coefficients are fixed only up to the Gram's null space (both
        solves drift there, ~1e-8 apart), which ``L u`` does not see."""
        preds, u = problem
        stencil = Stencil.from_predecessors(preds, u.shape[1])
        lower, d = _regress_rows(u, stencil, ridge, MIN_VARIANCE)
        want_lower, want_d = group_regressions(u, preds, ridge, MIN_VARIANCE)
        got_lower = dense_lower(stencil, lower)
        assert np.allclose(d, want_d, rtol=1e-10, atol=1e-10 * want_d.max())
        assert np.allclose(
            got_lower @ u, want_lower @ u,
            rtol=1e-10, atol=1e-10 * np.abs(u).max(),
        )
        n_members = u.shape[2]
        sizes = np.array([len(p) for p in preds], dtype=int)
        rows = sizes < n_members - 1 if ridge == 1e-8 else sizes >= 0
        assert np.allclose(
            got_lower[:, rows], want_lower[:, rows], rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("case", ["small_20x6", "large_40x22", "io_34x34"])
    def test_benchmark_stencils(self, case):
        grid, (ix, iy) = STENCIL_CASES[case]
        preds = neighbour_predecessors(grid, ix, iy, 60.0)
        stencil = Stencil.from_predecessors(preds, ix.size)
        u = np.random.default_rng(18).standard_normal((2, ix.size, 24))
        u -= u.mean(axis=2, keepdims=True)
        lower, d = _regress_rows(u, stencil, 1e-2, MIN_VARIANCE)
        want_lower, want_d = group_regressions(u, preds, 1e-2, MIN_VARIANCE)
        assert np.allclose(d, want_d, rtol=1e-10, atol=0)
        assert np.allclose(
            dense_lower(stencil, lower), want_lower, rtol=1e-10, atol=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(problem=regression_problems())
    def test_precision_band_adds_as_the_pair_loop(self, problem):
        """One ordered ``bincount`` adds every entry's products in the
        order of a loop over pairs of sub-diagonals: the same bits."""
        preds, u = problem
        stencil = Stencil.from_predecessors(preds, u.shape[1])
        lower, d = _regress_rows(u, stencil, 1e-2, MIN_VARIANCE)
        assert np.array_equal(
            precision_band(stencil, lower, d),
            pair_loop_band(stencil, lower, d),
        )

    def test_rank_deficient_gram_at_zero_ridge_raises(self):
        """A predecessor with no spread (its members all equal) makes its
        Gram block singular; with no ridge the band solve refuses it —
        ``ValueError``, from the engine too, and no NaN reaches ``out``."""
        grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
        rng = np.random.default_rng(19)
        states = rng.standard_normal((grid.n, 6))
        states[::7] = 1.0  # exactly representable: the anomaly is exactly 0
        net = ObservationNetwork.random(grid, m=30, obs_error_std=0.3, rng=rng)
        plan = AnalysisPlan(
            kind=KIND_ENKF,
            pieces=list(Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)),
            states=states, obs=rng.standard_normal((net.m, 6)),
            out=np.zeros_like(states), network=net,
            params={"radius_km": 1.5, "ridge": 0.0},
        )
        with pytest.raises(
            ValueError, match="regression system .* not positive"
        ):
            run_vectorized(plan)
        assert np.isfinite(plan.out).all()
        u = states[None, :40] - states[None, :40].mean(axis=2, keepdims=True)
        with pytest.raises(ValueError, match="not positive definite"):
            _regress_rows(
                u,
                Stencil.from_predecessors(
                    [np.arange(max(0, i - 3), i) for i in range(40)], 40
                ),
                0.0, MIN_VARIANCE,
            )


# ---------------------------------------------------------------------------
# Perf guard: call counts, not wall-clock
# ---------------------------------------------------------------------------
def spy_numpy(monkeypatch):
    """Make ``np.linalg.solve`` raise and record the operand count of every
    ``np.einsum`` call."""
    einsum_operands = []
    einsum = np.einsum

    def no_dense_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    def spy_einsum(spec, *operands, **kwargs):
        einsum_operands.append(len(operands))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    monkeypatch.setattr(np, "einsum", spy_einsum)
    return einsum_operands


def assert_no_triple_products(einsum_operands):
    """The spy saw the kernel's einsum calls, and none multiplies three or
    more operands (a ``B · n³`` product)."""
    assert einsum_operands
    assert max(einsum_operands) < 3


class TestCallCounts:
    """A run of the engine is two banded ``pbsv`` calls — the regressions
    and the closing — whatever its piece count or stencil sizes, with no
    dense ``np.linalg.solve`` and no three-operand ``np.einsum``."""

    def test_one_engine_run_is_two_band_solves(self, monkeypatch):
        einsum_operands = spy_numpy(monkeypatch)
        solves, runs = [], []
        real_solve = cholesky._solve_band
        real_compute = vectorized._compute_run

        def spy_solve(band, rhs, *args, **kwargs):
            solves.append((len(runs), band.shape, rhs.shape))
            return real_solve(band, rhs, *args, **kwargs)

        def spy_compute(plan, bucket, lo, hi, span_attrs):
            runs.append((hi - lo, bucket.stencil.s_max))
            real_compute(plan, bucket, lo, hi, span_attrs)

        monkeypatch.setattr(cholesky, "_solve_band", spy_solve)
        monkeypatch.setattr(core_analysis, "_solve_band", spy_solve)
        monkeypatch.setattr(vectorized, "_compute_run", spy_compute)
        grid = Grid(n_x=64, n_y=16, dx_km=25.0, dy_km=25.0)
        rng = np.random.default_rng(20)
        states = rng.standard_normal((grid.n, 12))
        net = ObservationNetwork.random(grid, m=80, obs_error_std=0.5, rng=rng)
        plan = AnalysisPlan(
            kind=KIND_ENKF,
            pieces=list(Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)),
            states=states, obs=rng.standard_normal((net.m, 12)),
            out=np.zeros_like(states), network=net,
            params={"radius_km": 60.0, "ridge": 1e-2},
        )
        run_vectorized(plan)
        assert runs and any(n_pieces > 1 for n_pieces, _ in runs)
        assert [r for r, _, _ in solves] == [
            r for r in range(1, len(runs) + 1) for _ in range(2)
        ]
        for (_, s_max), regression, closing in zip(
            runs, solves[::2], solves[1::2]
        ):
            assert regression[1][0] == s_max and regression[2][1] == 1
            assert closing[2][1] == 12
        assert_no_triple_products(einsum_operands)

    def test_per_piece_estimate_makes_no_dense_solve(self, monkeypatch):
        einsum_operands = spy_numpy(monkeypatch)
        grid, (ix, iy) = STENCIL_CASES["large_40x22"]
        states = np.random.default_rng(17).standard_normal((880, 24))
        modified_cholesky_inverse(states, grid, ix, iy, 60.0, ridge=1e-2)
        assert_no_triple_products(einsum_operands)
