"""Modified-Cholesky estimation of the inverse background covariance.

This is the estimator at the heart of P-EnKF (Nino-Ruiz, Sandu & Deng 2017,
2018; Bickel & Levina 2008), which the paper adopts for the local analysis:
instead of the rank-deficient sample covariance, fit

    B̂⁻¹ = Lᵀ D⁻¹ L

where ``L`` is unit lower-triangular and ``D`` diagonal, from per-variable
regressions: each component ``x_i`` is regressed onto its *predecessors in
a fixed ordering that lie within the localization radius*, so ``L`` is
sparse by construction and the estimate is well-conditioned even for small
ensembles.  ``B̂⁻¹`` is symmetric positive definite whenever every residual
variance is positive (we floor them to guarantee it).

The function operates on a *local* ensemble (a sub-domain expansion): the
coordinate arrays tell it the (ix, iy) of each component so the conditional
dependence structure follows the physical localization radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.grid import Grid
from repro.util.validation import check_positive


#: floor on the regressions' residual variances, so that ``D⁻¹`` (and
#: hence the estimate's positive-definiteness) is always defined
MIN_VARIANCE = 1e-12


def neighbour_predecessors(
    grid: Grid,
    ix: np.ndarray,
    iy: np.ndarray,
    radius_km: float,
) -> list[np.ndarray]:
    """For each component i, indices j < i within ``radius_km`` of i.

    The ordering is the components' storage order (row-major over the
    expansion), matching the column-major "previous rows" conditioning in
    the modified-Cholesky literature.  Coordinates are grid indices
    (integer-valued); they may repeat and come in any order.

    Cost is ``O(n · stencil)``: the offsets that pass the radius test are
    tabulated once over the coordinates' bounding box, and each
    component looks its neighbours up by cell — no ``n × n`` distance
    matrix is ever formed.
    """
    check_positive("radius_km", radius_km)
    x, y = _integer_coords(ix), _integer_coords(iy)
    n = x.size
    if n == 0:
        return []
    x = x - x.min()
    y = y - y.min()
    width, height = int(x.max()) + 1, int(y.max()) + 1

    # Offset table: every (ox, oy) between two cells of the box that the
    # radius test admits, by the same arithmetic as a pairwise test.
    reach_y = min(height - 1, int(radius_km // grid.dy_km) + 1)
    ox, oy = np.meshgrid(
        np.arange(1 - width, width), np.arange(-reach_y, reach_y + 1)
    )
    dx = np.abs(ox)
    if grid.periodic_x:
        dx = np.minimum(dx, grid.n_x - dx)
    near = np.hypot(dx * grid.dx_km, np.abs(oy) * grid.dy_km) <= radius_km
    ox, oy = ox[near], oy[near]

    # Components sorted by cell, so one cell's occupants (several when
    # coordinates repeat) are a contiguous run found by bisection.
    cell = y * width + x
    by_cell = np.argsort(cell, kind="stable")
    cell_sorted = cell[by_cell]
    tx = x[:, None] + ox
    ty = y[:, None] + oy
    inside = (tx >= 0) & (tx < width) & (ty >= 0) & (ty < height)
    row = np.nonzero(inside)[0]
    target = (ty * width + tx)[inside]
    lo = np.searchsorted(cell_sorted, target, side="left")
    count = np.searchsorted(cell_sorted, target, side="right") - lo
    first = np.cumsum(count) - count
    run = np.arange(int(count.sum())) - np.repeat(first, count)
    row = np.repeat(row, count)
    col = by_cell[np.repeat(lo, count) + run]

    earlier = col < row
    row, col = row[earlier], col[earlier]
    col = col[np.lexsort((col, row))]
    ends = np.cumsum(np.bincount(row, minlength=n)).tolist()
    return [col[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _integer_coords(coords) -> np.ndarray:
    """Grid coordinates as an integer array (integral floats accepted)."""
    coords = np.asarray(coords)
    if coords.dtype.kind in "iu":
        return coords.astype(np.int64, copy=False)
    as_int = coords.astype(np.int64)
    if not np.array_equal(as_int, coords):
        raise ValueError("grid coordinates must be integer-valued")
    return as_int


def _row_groups(
    predecessors: list[np.ndarray], n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows of a stencil grouped by predecessor count.

    Returns ``(rows, cols)`` pairs, one per distinct non-zero count
    ``s``: ``rows`` is the ``(G,)`` array of row indices with ``s``
    predecessors and ``cols`` their ``(G, s)`` predecessor table.  Rows
    without predecessors appear in no group.  Every row's regression is
    independent of every other's, so a group is solved as one stack.

    The stencil is validated here: it must have one entry per row and
    name only true predecessors (``0 <= j < i``), otherwise ``L`` would
    not be unit lower-triangular.
    """
    if len(predecessors) != n:
        raise ValueError(
            f"predecessors has {len(predecessors)} entries for n={n}"
        )
    sizes = np.fromiter((len(p) for p in predecessors), dtype=np.intp, count=n)
    if not sizes.any():
        return []
    flat = np.concatenate(predecessors).astype(np.intp, copy=False)
    row_of = np.repeat(np.arange(n), sizes)
    bad = (flat < 0) | (flat >= row_of)
    if bad.any():
        i = int(row_of[bad][0])
        raise ValueError(
            f"predecessors[{i}] names {int(flat[bad][0])}, which is not a "
            f"predecessor of row {i} (need 0 <= j < {i})"
        )
    starts = np.cumsum(sizes) - sizes
    groups = []
    for s in np.unique(sizes[sizes > 0]):
        rows = np.nonzero(sizes == s)[0]
        groups.append((rows, flat[starts[rows, None] + np.arange(s)]))
    return groups


def _regress_rows(u, groups, ridge: float, min_variance: float):
    """The modified-Cholesky regressions of a ``(B, n, N)`` anomaly stack.

    Row ``i`` regresses ``u[:, i]`` on the raw anomalies of its
    predecessors; each ``(rows, cols)`` group of :func:`_row_groups` is
    one ``(B, G, s, s)`` Gram stack and one batched ``solve``.

    Returns ``(betas, d)``: per group the ``(B, G, s)`` regression
    coefficients (``L[i, cols] = -beta``), and the ``(B, n)`` floored
    residual variances.
    """
    dof = max(u.shape[2] - 1, 1)
    # Rows without predecessors keep their own anomaly as the residual.
    var = np.sum(u * u, axis=2) / dof
    betas = []
    for rows, cols in groups:
        s = cols.shape[1]
        x_pred = u[:, cols, :]  # (B, G, s, N)
        x_row = u[:, rows, :]  # (B, G, N)
        gram = x_pred @ x_pred.transpose(0, 1, 3, 2)  # (B, G, s, s)
        lam = ridge * (np.einsum("bgii->bg", gram) / s + 1.0)
        diagonal = np.arange(s)
        gram[:, :, diagonal, diagonal] += lam[:, :, None]
        rhs = x_pred @ x_row[:, :, :, None]
        beta = np.linalg.solve(gram, rhs)[:, :, :, 0]
        resid = x_row - (beta[:, :, None, :] @ x_pred)[:, :, 0, :]
        var[:, rows] = np.sum(resid * resid, axis=2) / dof
        betas.append(beta)
    return betas, np.maximum(var, min_variance)


@dataclass(frozen=True)
class Stencil:
    """The shape-only half of a modified-Cholesky solve.

    A predecessor stencil fixes where every non-zero of ``L`` — and so
    of ``B̂⁻¹ = Lᵀ D⁻¹ L`` — can be before any ensemble value is seen.
    What the kernels derive from it is held here, so that callers which
    analyse the same expansion shape again (the geometry cache) derive it
    once: the regression row groups, and ``L``'s distinct sub-diagonals,
    which :func:`precision_band` assembles the band from.
    """

    #: per row, the indices ``j < i`` it is regressed on
    predecessors: list[np.ndarray]
    #: ``(rows, cols)`` per distinct predecessor count (:func:`_row_groups`)
    groups: list[tuple[np.ndarray, np.ndarray]]
    #: sorted distinct ``row − col`` of ``L``'s entries; ``offsets[0] == 0``
    #: is the unit diagonal
    offsets: np.ndarray
    #: per group, the ``(G, s)`` position in ``offsets`` of ``L[rows, cols]``
    diagonals: list[np.ndarray]

    @classmethod
    def from_predecessors(
        cls, predecessors: list[np.ndarray], n: int
    ) -> "Stencil":
        """Validate a stencil for ``n`` rows and derive its artefacts."""
        groups = _row_groups(predecessors, n)
        gaps = [rows[:, None] - cols for rows, cols in groups]
        offsets = np.unique(np.concatenate([np.zeros(1, np.intp)] + [
            gap.ravel() for gap in gaps
        ]))
        return cls(
            predecessors=predecessors,
            groups=groups,
            offsets=offsets,
            diagonals=[np.searchsorted(offsets, gap) for gap in gaps],
        )

    @property
    def n(self) -> int:
        return len(self.predecessors)

    @property
    def bandwidth(self) -> int:
        """Sub-diagonals of ``L`` (and of ``Lᵀ D⁻¹ L``) that can be non-zero."""
        return int(self.offsets[-1])


def precision_band(stencil: Stencil, betas, d: np.ndarray) -> np.ndarray:
    """Lower band of ``B̂⁻¹ = Lᵀ D⁻¹ L`` for a stack of regressions.

    ``betas`` and the ``(B, n)`` variances ``d`` are what
    :func:`_regress_rows` returned for ``stencil.groups``.  Returns
    ``(bandwidth + 1, B, n)`` in LAPACK's lower band storage,
    ``band[i − j, b, j] = B̂⁻¹_b[i, j]``.

    ``L`` is held by sub-diagonal — row-major expansions give it about
    eleven — as ``lower[a, :, k] = L[k, k − offsets[a]]``, so the product
    is one slice multiply-add per pair of sub-diagonals ``a <= b``:
    ``L[k, k−a] · L[k, k−b] / d[k]`` lands on entry ``(k−a, k−b)``, which
    is column ``k − b`` of band row ``b − a``.  No index array and no
    ``n × n`` array is formed.
    """
    n_batch, n = d.shape
    offsets = stencil.offsets.tolist()
    lower = np.zeros((len(offsets), n_batch, n))
    lower[0] = 1.0
    for (rows, _), diagonal, beta in zip(
        stencil.groups, stencil.diagonals, betas
    ):
        lower[diagonal, :, rows[:, None]] = -beta.transpose(1, 2, 0)
    scaled = lower / d
    band = np.zeros((stencil.bandwidth + 1, n_batch, n))
    for ia, a in enumerate(offsets):
        for ib in range(ia, len(offsets)):
            b = offsets[ib]
            band[b - a, :, : n - b] += lower[ia, :, b:] * scaled[ib, :, b:]
    return band


def modified_cholesky_inverse(
    states: np.ndarray,
    grid: Grid,
    ix: np.ndarray,
    iy: np.ndarray,
    radius_km: float,
    ridge: float = 1e-8,
    min_variance: float = MIN_VARIANCE,
    predecessors: list[np.ndarray] | None = None,
) -> sp.csr_matrix:
    """Estimate ``B̂⁻¹`` from a (local) ensemble by modified Cholesky.

    Parameters
    ----------
    states:
        (n_local, N) ensemble matrix.
    grid, ix, iy:
        Mesh and per-component grid coordinates (for the radius test).
    radius_km:
        Localization radius defining the conditional-dependence stencil.
    ridge:
        Tikhonov regularisation added to each regression's normal matrix
        (scaled by its trace) — keeps the fit well-posed when the number of
        predecessors approaches or exceeds N.
    min_variance:
        Floor on residual variances so ``D⁻¹`` (and hence SPD-ness) is
        always defined.
    predecessors:
        Pre-computed :func:`neighbour_predecessors` stencil.  The stencil
        depends only on the coordinates and the radius — never on the
        ensemble — so callers that already hold it pass it in and skip
        the rebuild.  Every entry must name true predecessors only
        (``0 <= j < i``).

    Returns
    -------
    (n_local, n_local) SPD matrix ``B̂⁻¹ = Lᵀ D⁻¹ L`` as a
    ``scipy.sparse.csr_matrix``: ``L`` has at most ``O(stencil)`` entries
    per row, so ``B̂⁻¹`` is banded (``.toarray()`` gives the dense matrix).

    This is the estimate :func:`repro.core.analysis.analysis_modified_cholesky`
    solves against, from the same two bodies (:func:`_regress_rows`,
    :func:`precision_band`), for a caller that wants the matrix itself.
    """
    u = np.asarray(states, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"expected (n, N) ensemble, got shape {u.shape}")
    n, n_members = u.shape
    if n_members < 2:
        raise ValueError("modified Cholesky needs at least 2 members")
    if np.asarray(ix).size != n or np.asarray(iy).size != n:
        raise ValueError("coordinate arrays must match the state dimension")
    u = u - u.mean(axis=1, keepdims=True)

    if predecessors is None:
        predecessors = neighbour_predecessors(grid, ix, iy, radius_km)
    stencil = Stencil.from_predecessors(predecessors, n)
    betas, d = _regress_rows(u[None], stencil.groups, ridge, min_variance)
    band = precision_band(stencil, betas, d)[:, 0, :]
    filled = np.flatnonzero(band.any(axis=1))
    lower = sp.diags(
        [band[k, : n - k] for k in filled], -filled, shape=(n, n), format="csr"
    )
    return (lower + sp.tril(lower, k=-1).T).tocsr()
