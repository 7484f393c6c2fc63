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

The regressions are independent small ridge least-squares problems, so
nothing asks for one LAPACK call per regression.  For a stack of pieces
that share a :class:`Stencil`, the kernels are a few large calls:

1. the products the regressions need, ``u_i · u_j`` within the stencil's
   bandwidth, as one stacked ``matmul`` over row tiles (a banded local
   covariance — never a full ``n × n``);
2. every row's ridge-Gram system as one diagonal block of one SPD band,
   gathered from those products and closed by one ``pbsv``
   (:func:`_solve_band`, a GIL-free LAPACK call);
3. the residuals ``E = L u`` over ``L``'s sub-diagonals, their variances
   ``D``, and the band of ``Lᵀ D⁻¹ L`` as one ordered ``np.bincount``
   (:func:`precision_band`).

The index tables all three run on depend on the stencil alone
(:class:`KernelTables`, built once per stencil and kept with it).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack

from repro.core.grid import Grid
from repro.util.validation import check_positive


#: floor on the regressions' residual variances, so that ``D⁻¹`` (and
#: hence the estimate's positive-definiteness) is always defined
MIN_VARIANCE = 1e-12


#: LAPACK ``dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)``, called
#: through the C pointer SciPy exports for Cython: a ``ctypes`` foreign
#: call releases the GIL for its length, SciPy's f2py wrapper holds it, so
#: pool threads solve their runs at once (docs/PERFORMANCE.md §1).
_DPBSV = ctypes.CFUNCTYPE(
    None, ctypes.c_char_p, *[ctypes.POINTER(ctypes.c_int)] * 3,
    ctypes.c_void_p, ctypes.POINTER(ctypes.c_int),
    ctypes.c_void_p, *[ctypes.POINTER(ctypes.c_int)] * 2,
)(
    ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )(
        cython_lapack.__pyx_capi__["dpbsv"],
        ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi)
        )(cython_lapack.__pyx_capi__["dpbsv"]),
    )
)


def _solve_band(
    band: np.ndarray, rhs: np.ndarray, system: str = "precision-form system"
) -> np.ndarray:
    """Solve the SPD system held in lower band storage (LAPACK ``pbsv``),
    all ``(n, N)`` right-hand sides at once; returns the ``(n, N)``
    solution.  ``system`` names it in the errors.

    LAPACK checks nothing, so the checks are here: it would carry NaN/inf
    through to the analysis silently.  LAPACK factorises and solves in
    place, in Fortran order: ``band`` and ``rhs`` are handed to it as they
    are when they are Fortran-ordered float arrays (the callers pass their
    own temporaries, which are overwritten) and copied otherwise (the
    input is then left as given).  Every argument is built per call, so
    concurrent calls share no mutable state.
    """
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError(
            f"non-finite values in the {system} "
            f"(background, observations, H or B̂⁻¹)"
        )
    ab = np.asfortranarray(band, dtype=float)
    x = np.asfortranarray(rhs, dtype=float)
    if ab.ndim != 2 or x.ndim != 2 or x.shape[0] != ab.shape[1]:
        raise ValueError(
            f"band {ab.shape} and right-hand sides {x.shape} do not match"
        )
    n = ab.shape[1]
    info = ctypes.c_int(0)
    _DPBSV(
        b"L", ctypes.byref(ctypes.c_int(n)),
        ctypes.byref(ctypes.c_int(ab.shape[0] - 1)),
        ctypes.byref(ctypes.c_int(x.shape[1])),
        ab.ctypes.data, ctypes.byref(ctypes.c_int(ab.shape[0])),
        x.ctypes.data, ctypes.byref(ctypes.c_int(max(1, n))),
        ctypes.byref(info),
    )
    if info.value > 0:
        raise ValueError(
            f"{system} of size {n} is not positive definite: "
            f"{info.value}th leading minor not positive definite"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpbsv")
    return x


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


def _row_sizes(
    predecessors: list[np.ndarray], n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The predecessor count of every row and all predecessors, row after
    row, as one flat array.

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
        return sizes, np.zeros(0, dtype=np.intp)
    flat = np.concatenate(predecessors).astype(np.intp, copy=False)
    row_of = np.repeat(np.arange(n), sizes)
    bad = (flat < 0) | (flat >= row_of)
    if bad.any():
        i = int(row_of[bad][0])
        raise ValueError(
            f"predecessors[{i}] names {int(flat[bad][0])}, which is not a "
            f"predecessor of row {i} (need 0 <= j < {i})"
        )
    return sizes, flat


#: smallest row tile of the banded covariance (see :class:`KernelTables`),
#: so that a narrow stencil does not cut a piece into one-row products
_MIN_TILE = 32


@dataclass(frozen=True)
class KernelTables:
    """Index tables the kernels of one :class:`Stencil` run on.

    With ``K`` the stencil's bandwidth and ``M`` its number of regression
    coefficients (the summed predecessor counts):

    * **the banded covariance.**  Every product a regression needs,
      ``u_i · u_j`` with ``i − j <= K``, lies in one of the row tiles
      ``u[r0:r0+T] @ u[r0−K:r0+T]ᵀ`` (``T = tile``); a piece's tiles are
      one flat buffer of ``tiles_size`` products, then a zero.
    * **the regressions as one band.**  Row ``i``'s ridge-Gram system is
      one diagonal block, of its own size ``s``, of one block-diagonal
      SPD band of ``M`` unknowns and ``s_max`` band rows.  ``gram_index``
      places every entry of that band, in ``(M, s_max)`` order, in the
      tile buffer (entries outside a block read the zero), and
      ``rhs_index`` every right-hand side ``u_i · u_p``.
    * **``L`` by sub-diagonal**, ``lower[a, k] = L[k, k − offsets[a]]``:
      ``lower_index`` is where each coefficient goes, in ``(n_off, n)``.
    * **``Lᵀ D⁻¹ L`` as one ordered scatter-add.**  Every non-zero
      product ``L[k, k−a] · L[k, k−b] / d[k]`` (``a <= b``) lands on band
      entry ``(k − a, k − b)``; the ``term_*`` tables list them ordered by
      ``(a, b, k)``, the order in which a loop over pairs of
      sub-diagonals adds them.

    The large tables are ``int32``: a stencil's tables are cached with
    its geometry, and they are its bulk.
    """

    #: rows of one covariance tile
    tile: int
    #: products in one piece's tile buffer (the zero follows them)
    tiles_size: int
    #: ``(M · s_max,)`` tile-buffer position of every regression-band entry
    gram_index: np.ndarray
    #: ``(M,)`` tile-buffer position of every regression right-hand side
    rhs_index: np.ndarray
    #: ``(R,)`` first unknown of each regression block (rows with ``s > 0``)
    block_starts: np.ndarray
    #: ``(R,)`` size ``s`` of each regression block
    block_sizes: np.ndarray
    #: ``(M,)`` flat position of each coefficient's ``L`` entry in
    #: ``(len(offsets), n)``
    lower_index: np.ndarray
    #: per product of ``Lᵀ D⁻¹ L``: flat ``L`` positions of its two
    #: factors (the second is divided by its row's variance) and its band
    #: entry ``column · (K + 1) + diagonal``
    term_left: np.ndarray
    term_right: np.ndarray
    term_target: np.ndarray

    @classmethod
    def build(cls, stencil: "Stencil") -> "KernelTables":
        n, offsets = stencil.n, stencil.offsets
        sizes, flat = _row_sizes(stencil.predecessors, n)
        row_of = np.repeat(np.arange(n), sizes)
        reach = stencil.bandwidth
        tile = min(max(reach, _MIN_TILE), max(n, 1))
        width = tile + reach
        tiles_size = -(-n // tile) * tile * width

        def position(i, j):
            """Tile-buffer position of ``u_i · u_j`` (``j <= i``)."""
            return i * width + j - (i // tile) * tile + reach

        # Regression blocks: unknown m is coefficient m of `flat`; band
        # row k of column m is the block's entry (m + k, m), if inside it.
        block_sizes = sizes[sizes > 0]
        block_starts = np.cumsum(block_sizes) - block_sizes
        block_end = np.repeat(block_starts + block_sizes, block_sizes)
        gram_index = np.empty((flat.size, stencil.s_max), dtype=np.int32)
        for k in range(stencil.s_max):
            partner = np.arange(k, flat.size + k)
            inside = partner < block_end
            partner = flat[np.where(inside, partner, 0)]
            gram_index[:, k] = np.where(
                inside,
                position(np.maximum(flat, partner), np.minimum(flat, partner)),
                tiles_size,
            )

        # Lᵀ D⁻¹ L: for every pair a <= b of offset positions, the rows
        # whose L has entries on both sub-diagonals, in (a, b, k) order.
        a_of = np.searchsorted(offsets, row_of - flat)
        on = np.zeros((offsets.size, n), dtype=bool)
        on[0] = True
        on[a_of, row_of] = True
        left, right, target = [], [], []
        for a in range(offsets.size):
            for b in range(a, offsets.size):
                rows = np.flatnonzero(on[a] & on[b]).astype(np.int32)
                left.append(a * n + rows)
                right.append(b * n + rows)
                target.append(
                    (rows - offsets[b]) * (reach + 1) + offsets[b] - offsets[a]
                )
        return cls(
            tile=tile,
            tiles_size=tiles_size,
            gram_index=gram_index.ravel(),
            rhs_index=position(row_of, flat),
            block_starts=block_starts,
            block_sizes=block_sizes,
            lower_index=a_of * n + row_of,
            term_left=np.concatenate(left),
            term_right=np.concatenate(right),
            term_target=np.concatenate(target).astype(np.int32),
        )


@dataclass(frozen=True)
class Stencil:
    """The shape-only half of a modified-Cholesky solve.

    A predecessor stencil fixes where every non-zero of ``L`` — and so
    of ``B̂⁻¹ = Lᵀ D⁻¹ L`` — can be before any ensemble value is seen.
    What the kernels derive from it is held here, so that callers which
    analyse the same expansion shape again (the geometry cache) derive
    it once: ``L``'s distinct sub-diagonals, and the kernels' index
    tables (:class:`KernelTables`), built on first use.
    """

    #: per row, the indices ``j < i`` it is regressed on
    predecessors: list[np.ndarray]
    #: ``(n,)`` predecessor count of every row
    sizes: np.ndarray
    #: sorted distinct ``row − col`` of ``L``'s entries; ``offsets[0] == 0``
    #: is the unit diagonal
    offsets: np.ndarray

    @classmethod
    def from_predecessors(
        cls, predecessors: list[np.ndarray], n: int
    ) -> "Stencil":
        """Validate a stencil for ``n`` rows and derive its offsets."""
        sizes, flat = _row_sizes(predecessors, n)
        gaps = np.repeat(np.arange(n), sizes) - flat
        return cls(
            predecessors=predecessors,
            sizes=sizes,
            offsets=np.unique(np.concatenate([np.zeros(1, np.intp), gaps])),
        )

    @property
    def n(self) -> int:
        return len(self.predecessors)

    @property
    def bandwidth(self) -> int:
        """Sub-diagonals of ``L`` (and of ``Lᵀ D⁻¹ L``) that can be non-zero."""
        return int(self.offsets[-1])

    @property
    def s_max(self) -> int:
        """The largest predecessor count (the regression band's rows)."""
        return int(self.sizes.max(initial=0))

    @cached_property
    def tables(self) -> KernelTables:
        """The kernels' index tables, built on first use and kept."""
        return KernelTables.build(self)

    @property
    def built_tables(self) -> KernelTables | None:
        """:attr:`tables` if a kernel has asked for them yet, else ``None``."""
        return self.__dict__.get("tables")


def _covariance_tiles(u: np.ndarray, stencil: Stencil) -> np.ndarray:
    """The banded products ``u_i · u_j`` of a ``(B, n, N)`` anomaly stack.

    Returns ``(B, tiles_size + 1)``: each piece's row tiles
    ``u[r0:r0+T] @ u[r0−K:r0+T]ᵀ`` laid end to end (one stacked
    ``matmul`` over windows of a zero-padded copy, so no tile is
    gathered), then a zero that :attr:`KernelTables.gram_index` points the
    entries outside a regression block at.  Only ``n · (T + K)`` products
    a piece are formed, never ``n²``.
    """
    n_batch, n, n_members = u.shape
    tables = stencil.tables
    reach, tile = stencil.bandwidth, tables.tile
    n_tiles = -(-n // tile)
    padded = np.zeros((n_batch, reach + n_tiles * tile, n_members))
    padded[:, reach:reach + n] = u
    s_b, s_row, s_member = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(n_batch, n_tiles, tile + reach, n_members),
        strides=(s_b, tile * s_row, s_row, s_member),
        writeable=False,
    )
    rows = padded[:, reach:].reshape(n_batch, n_tiles, tile, n_members)
    buffer = np.empty((n_batch, tables.tiles_size + 1))
    buffer[:, -1] = 0.0
    tiles = buffer[:, :-1].reshape(n_batch, n_tiles, tile, tile + reach)
    np.matmul(rows, windows.transpose(0, 1, 3, 2), out=tiles)
    return buffer


def _regress_rows(u, stencil: Stencil, ridge: float, min_variance: float):
    """The modified-Cholesky regressions of a ``(B, n, N)`` anomaly stack.

    Row ``i`` regresses ``u[:, i]`` on the raw anomalies of its
    predecessors.  All ``B · M`` coefficients of the stack are one
    block-diagonal SPD band — one ridge-Gram block per row, gathered from
    the banded covariance (:func:`_covariance_tiles`) — closed by one
    ``pbsv``; the residuals are ``E = L u``, summed over ``L``'s
    sub-diagonals, so the variances never come from a cancelling
    ``|x|² − βᵀr``.

    Returns ``(lower, d)``: ``L`` as ``(B, len(offsets), n)`` sub-diagonals
    (``lower[:, a, k] = L[k, k − offsets[a]]``, ``lower[:, 0] = 1``), and
    the ``(B, n)`` floored residual variances.  A Gram block that is not
    positive definite (ridge 0 on a rank-deficient ensemble) raises
    ``ValueError``.
    """
    n_batch, n, n_members = u.shape
    dof = max(n_members - 1, 1)
    offsets = stencil.offsets.tolist()
    lower = np.zeros((n_batch, len(offsets), n))
    lower[:, 0] = 1.0
    resid = u  # rows without predecessors keep their own anomaly
    if stencil.s_max:
        tables = stencil.tables
        covariance = _covariance_tiles(u, stencil)
        width = stencil.s_max
        gram = np.take(covariance, tables.gram_index, axis=1)
        diagonal = gram[:, ::width]
        trace = np.add.reduceat(diagonal, tables.block_starts, axis=1)
        diagonal += np.repeat(
            ridge * (trace / tables.block_sizes + 1.0),
            tables.block_sizes, axis=1,
        )
        beta = _solve_band(
            gram.reshape(-1, width).T,
            np.take(covariance, tables.rhs_index, axis=1).reshape(-1, 1),
            "regression system",
        )
        lower.reshape(n_batch, -1)[:, tables.lower_index] = (
            -beta.reshape(n_batch, -1)
        )
        resid = u.copy()
        for a, offset in enumerate(offsets[1:], start=1):
            resid[:, offset:] += lower[:, a, offset:, None] * u[:, :n - offset]
    var = np.einsum("bnk,bnk->bn", resid, resid) / dof
    return lower, np.maximum(var, min_variance)


def precision_band(
    stencil: Stencil, lower: np.ndarray, d: np.ndarray,
    bandwidth: int | None = None,
) -> np.ndarray:
    """Lower band of ``B̂⁻¹ = Lᵀ D⁻¹ L`` for a stack of regressions.

    ``lower`` and the ``(B, n)`` variances ``d`` are what
    :func:`_regress_rows` returned.  Returns ``(B · n, bandwidth + 1)``
    with ``band[b·n + j, k] = B̂⁻¹_b[j + k, j]`` — the transpose of
    LAPACK's lower band storage, for the stacked system whose diagonal
    blocks are the pieces.  ``bandwidth`` defaults to the stencil's and
    may be wider (room for ``Hᵀ R⁻¹ H``).

    Every non-zero product ``L[k, k−a] · (L[k, k−b] / d[k])`` is formed
    at once and added onto its entry by one ``np.bincount``, in the
    stencil's ``(a, b, k)`` order — the order of a loop over pairs of
    sub-diagonals — so each entry is the same sequence of additions.  No
    ``n × n`` array is formed.
    """
    n_batch, n = d.shape
    tables = stencil.tables
    scaled = lower / d[:, None, :]
    weights = np.take(lower.reshape(n_batch, -1), tables.term_left, axis=1)
    weights *= np.take(scaled.reshape(n_batch, -1), tables.term_right, axis=1)
    width = stencil.bandwidth + 1
    target = tables.term_target
    if bandwidth is not None and bandwidth + 1 != width:
        column, diagonal = np.divmod(target, width)
        width = bandwidth + 1
        target = column * width + diagonal
    target = np.arange(0, n_batch * n * width, n * width)[:, None] + target
    band = np.bincount(
        target.ravel(), weights.ravel(), minlength=n_batch * n * width
    )
    return band.reshape(n_batch * n, width)


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
    lower, d = _regress_rows(u[None], stencil, ridge, min_variance)
    band = precision_band(stencil, lower, d)
    filled = np.flatnonzero(band.any(axis=0))
    lower = sp.diags(
        [band[: n - k, k] for k in filled], -filled, shape=(n, n), format="csr"
    )
    return (lower + sp.tril(lower, k=-1).T).tocsr()
