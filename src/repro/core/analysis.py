"""The EnKF analysis equations: (3), (5) and the local analysis (6).

Four entry points:

* :func:`analysis_gain_form` — Eq. (3), the classic stochastic-EnKF update
  ``δXᵃ = B Hᵀ (R + H B Hᵀ)⁻¹ (Yˢ − H Xᵇ)``, computed without ever forming
  ``B`` (only ``HU`` products; the linear solve is in observation space).
* :func:`analysis_precision_form` — Eq. (5), the update written against an
  inverse-covariance estimate ``B̂⁻¹``:
  ``δXᵃ = (B̂⁻¹ + Hᵀ R⁻¹ H)⁻¹ Hᵀ R⁻¹ (Yˢ − H Xᵇ)`` (state-space solve).
* :func:`analysis_modified_cholesky` — Eq. (5) against the
  modified-Cholesky ``B̂⁻¹ = Lᵀ D⁻¹ L`` of the background itself, for a
  stack of local problems: the band of the system is assembled from the
  regression coefficients and factorised as a band.  The one closing
  behind every local analysis, per-piece and batched.
* :func:`local_analysis` — Eq. (6): that update on one sub-domain
  expansion (the ``B = 1`` stack), projected back to the interior points.

The two global forms agree exactly when ``B̂⁻¹`` is the true inverse of the
``B`` used in the gain form (tested), which is the paper's equivalence
between (3) and (5).
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import cython_lapack

from repro.core.cholesky import (
    MIN_VARIANCE,
    Stencil,
    _regress_rows,
    neighbour_predecessors,
    precision_band,
)
from repro.core.domain import SubDomain
from repro.core.observations import ObservationNetwork


_NON_FINITE = (
    "non-finite values in the precision-form system "
    "(background, observations, H or B̂⁻¹)"
)

#: LAPACK ``dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)``, called
#: through the C pointer SciPy exports for Cython: a ``ctypes`` foreign
#: call releases the GIL for its length, SciPy's f2py wrapper holds it, so
#: pool threads close their pieces at once (docs/PERFORMANCE.md §1).
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


def _innovations(hx: np.ndarray, y_perturbed: np.ndarray) -> np.ndarray:
    """``Yˢ − H Xᵇ`` with shape checking."""
    if hx.shape != y_perturbed.shape:
        raise ValueError(
            f"H X^b has shape {hx.shape} but Y^s has shape {y_perturbed.shape}"
        )
    return y_perturbed - hx


def analysis_gain_form(
    background: np.ndarray,
    h_operator,
    r_diag: np.ndarray,
    y_perturbed: np.ndarray,
    b_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (3): observation-space solve, sample or explicit ``B``.

    Parameters
    ----------
    background:
        ``Xᵇ`` of shape (n, N).
    h_operator:
        Linear operator ``H`` (dense, sparse, or anything supporting ``@``),
        shape (m, n).
    r_diag:
        Diagonal of ``R`` (shape (m,)); the repo uses diagonal data-error
        covariances.
    y_perturbed:
        ``Yˢ`` of shape (m, N).
    b_matrix:
        If given, use this explicit background covariance.  Otherwise use
        the ensemble sample covariance implicitly (never formed): with
        ``U`` the anomalies, ``B Hᵀ = U (H U)ᵀ / (N−1)``.

    Returns the analysis ensemble ``Xᵃ = Xᵇ + δXᵃ``, shape (n, N).
    """
    xb = np.asarray(background, dtype=float)
    if xb.ndim != 2:
        raise ValueError(f"background must be (n, N), got {xb.shape}")
    n_members = xb.shape[1]
    r_diag = np.asarray(r_diag, dtype=float).ravel()
    hx = np.asarray(h_operator @ xb)
    innov = _innovations(hx, np.asarray(y_perturbed, dtype=float))

    if b_matrix is not None:
        # .toarray(), not .todense(): the latter yields np.matrix, whose
        # operator semantics would infect every downstream product.
        ht = h_operator.T.toarray() if sp.issparse(h_operator) else h_operator.T
        bht = np.asarray(b_matrix @ ht)
        s = np.asarray(h_operator @ bht)
    else:
        if n_members < 2:
            raise ValueError("sample-covariance gain form needs N >= 2")
        u = xb - xb.mean(axis=1, keepdims=True)
        hu = np.asarray(h_operator @ u)  # (m, N)
        bht = u @ hu.T / (n_members - 1)  # (n, m)
        s = hu @ hu.T / (n_members - 1)  # (m, m)
    s = s + np.diag(r_diag)
    z = scipy.linalg.solve(s, innov, assume_a="pos")
    return xb + bht @ z


def _positive_r_diag(r_diag) -> np.ndarray:
    """The diagonal of ``R`` as a flat float array, checked finite and
    positive."""
    r_diag = np.asarray(r_diag, dtype=float).ravel()
    if not (np.isfinite(r_diag).all() and (r_diag > 0.0).all()):
        raise ValueError("r_diag must be finite and positive")
    return r_diag


def _observation_terms(xb: np.ndarray, h_operator, r_diag, y_perturbed):
    """``Hᵀ R⁻¹ H`` (sparse) and ``Hᵀ R⁻¹ (Yˢ − H Xᵇ)`` for an ``(n, N)``
    background; ``r_diag`` must be finite and positive."""
    r_diag = _positive_r_diag(r_diag)
    h = sp.csr_matrix(h_operator)
    innov = _innovations(h @ xb, np.asarray(y_perturbed, dtype=float))
    ht_rinv = h.multiply((1.0 / r_diag)[:, None]).T.tocsr()  # (n, m)
    return ht_rinv @ h, ht_rinv @ innov


def _add_lower_band(band: np.ndarray, matrix) -> np.ndarray:
    """``band`` plus the lower triangle of a sparse symmetric ``matrix``.

    ``band`` is ``(rows, n)`` LAPACK lower band storage
    (``band[i − j, j] = A[i, j]``); it is widened when the matrix reaches
    further from the diagonal than it does — the bandwidth is read off
    the matrix, never assumed.
    """
    coo = matrix.tocoo()
    lower = coo.row >= coo.col
    diagonal, column = (coo.row - coo.col)[lower], coo.col[lower]
    missing = int(diagonal.max(initial=0)) + 1 - band.shape[0]
    if missing > 0:
        band = np.concatenate([band, np.zeros((missing, band.shape[1]))])
    np.add.at(band, (diagonal, column), coo.data[lower])
    return band


def _solve_band(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD system held in lower band storage (LAPACK ``pbsv``),
    all ``(n, N)`` right-hand sides at once; returns the ``(n, N)``
    solution.

    LAPACK checks nothing, so the checks are here: it would carry NaN/inf
    through to the analysis silently.  ``band`` and ``rhs`` are read, not
    written: LAPACK works on Fortran-ordered copies (as SciPy's wrapper
    does), and every argument is built per call, so concurrent calls
    share no mutable state.
    """
    if not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError(_NON_FINITE)
    ab = np.array(band, dtype=float, order="F")
    x = np.array(rhs, dtype=float, order="F")
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
            f"precision-form system of size {n} is not positive definite: "
            f"{info.value}th leading minor not positive definite"
        )
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpbsv")
    return x


def analysis_precision_form(
    background: np.ndarray,
    h_operator,
    r_diag: np.ndarray,
    y_perturbed: np.ndarray,
    b_inverse: np.ndarray | sp.spmatrix,
) -> np.ndarray:
    """Eq. (5): state-space solve against an inverse-covariance estimate.

    ``δXᵃ = (B̂⁻¹ + Hᵀ R⁻¹ H)⁻¹ Hᵀ R⁻¹ (Yˢ − H Xᵇ)``.
    Returns ``Xᵃ`` of shape (n, N).

    ``h_operator`` and ``b_inverse`` may be dense or ``scipy.sparse``;
    ``b_inverse`` must be symmetric positive definite (its lower triangle
    is the one read).  The system is put in band storage at whatever
    bandwidth it has — a banded ``B̂⁻¹`` stays banded, a full one is a
    dense Cholesky — and all ``N`` right-hand sides are solved by one
    ``pbsv``.

    Non-finite input, a non-positive ``r_diag`` and a system that is not
    positive definite raise ``ValueError``.
    """
    xb = np.asarray(background, dtype=float)
    if xb.ndim != 2:
        raise ValueError(f"background must be (n, N), got {xb.shape}")
    n = xb.shape[0]
    b_inv = sp.csr_matrix(b_inverse, dtype=float)
    if b_inv.shape != (n, n):
        raise ValueError(
            f"B̂⁻¹ has shape {b_inv.shape}, expected {(n, n)}"
        )
    gram, rhs = _observation_terms(xb, h_operator, r_diag, y_perturbed)
    a = b_inv + gram
    if not np.isfinite(a.data).all():  # either triangle
        raise ValueError(_NON_FINITE)
    return xb + _solve_band(_add_lower_band(np.zeros((1, n)), a), rhs)


def analysis_modified_cholesky(
    backgrounds,
    stencil: Stencil,
    h_operator,
    r_diag: np.ndarray,
    y_perturbed: np.ndarray,
    ridge: float = 1e-8,
) -> np.ndarray:
    """Eq. (5) against the modified-Cholesky ``B̂⁻¹``, for a stack of local
    problems that share one stencil — a piece is the ``B = 1`` stack.

    Parameters
    ----------
    backgrounds:
        ``(B, n, N)`` stack of local ensembles.
    stencil:
        Their shared :class:`~repro.core.cholesky.Stencil`.
    h_operator:
        ``(m, B·n)`` observation operator over the stacked state (dense
        or sparse): block-diagonal, each row observing one piece.  All-zero
        rows (a bucket's padding) contribute exactly nothing.
    r_diag, y_perturbed:
        ``(m,)`` diagonal of ``R`` and ``(m, N)`` perturbed observations.
    ridge:
        Regularisation of the regressions (see
        :func:`~repro.core.cholesky.modified_cholesky_inverse`).

    The band of ``A = Lᵀ D⁻¹ L + Hᵀ R⁻¹ H`` is assembled straight from the
    regression coefficients (:func:`~repro.core.cholesky.precision_band`)
    and factorised as what it is, a symmetric positive-definite band:
    the pieces of a stack are the diagonal blocks of one system with the
    bandwidth of one piece, solved for all ``N`` right-hand sides by one
    ``pbsv``.  Returns the ``(B, n, N)`` analysis stack.
    """
    xb = np.asarray(backgrounds, dtype=float)
    if xb.ndim != 3:
        raise ValueError(f"backgrounds must be (B, n, N), got {xb.shape}")
    n_batch, n, n_members = xb.shape
    if n_members < 2:
        raise ValueError("modified Cholesky needs at least 2 members")
    if stencil.n != n:
        raise ValueError(
            f"predecessors has {stencil.n} entries for n={n}"
        )
    u = xb - xb.mean(axis=2, keepdims=True)
    betas, d = _regress_rows(u, stencil.groups, ridge, MIN_VARIANCE)
    band = precision_band(stencil, betas, d)
    stacked = xb.reshape(n_batch * n, n_members)
    gram, rhs = _observation_terms(stacked, h_operator, r_diag, y_perturbed)
    band = _add_lower_band(band.reshape(band.shape[0], n_batch * n), gram)
    return (stacked + _solve_band(band, rhs)).reshape(n_batch, n, n_members)


def local_analysis(
    subdomain: SubDomain,
    expansion_states: np.ndarray,
    network: ObservationNetwork | None,
    y_perturbed_global: np.ndarray,
    radius_km: float,
    ridge: float = 1e-8,
    geometry=None,
) -> np.ndarray:
    """Eq. (6): analyse one sub-domain from its expansion data.

    Parameters
    ----------
    subdomain:
        The ``D_ij`` being updated (supplies the expansion geometry and the
        projection ``P_ij``).
    expansion_states:
        Background ensemble restricted to the expansion ``D̄_ij``
        (shape (n̄_sd, N), expansion row-major order).
    network:
        The global observation network; the local operator ``H_[i,j]`` and
        the relevant rows of ``Yˢ`` are extracted here.
    y_perturbed_global:
        Global perturbed observations (m, N) — every sub-domain must see the
        *same* perturbations for the decomposition to be consistent.
    radius_km:
        Localization radius for the modified-Cholesky estimator.
    ridge:
        Regularisation of the regressions (see
        :func:`~repro.core.cholesky.modified_cholesky_inverse`).
    geometry:
        Optional :class:`~repro.parallel.geometry.PieceGeometry` carrying
        the cycle-invariant artifacts (observation restriction, index
        arrays, ``R`` diagonal, the modified-Cholesky stencil).  When given
        it *replaces* every geometric derivation here — including
        ``network``, which may then be ``None`` (the parallel workers
        never ship the network object).  The numerical path is unchanged,
        so results are bit-identical with and without it.

    Returns the analysed interior ensemble (n_sd, N).
    """
    xb = np.asarray(expansion_states, dtype=float)
    if xb.shape[0] != subdomain.exp_size:
        raise ValueError(
            f"expansion ensemble has {xb.shape[0]} rows, expected "
            f"{subdomain.exp_size}"
        )
    if geometry is not None:
        interior = geometry.interior_positions
        obs_positions, h_local = geometry.obs_positions, geometry.h_local
        r_diag, stencil = geometry.r_diag, geometry.stencil
    else:
        interior = subdomain.interior_positions_in_expansion
        obs_positions, h_local = network.restrict_to_box(
            subdomain.exp_x_indices, subdomain.exp_y_indices
        )
        r_diag = np.full(obs_positions.size, network.obs_error_std**2)
        stencil = None

    if obs_positions.size == 0:
        # Nothing observed near this sub-domain: background is the analysis.
        return xb[interior, :]

    y_local = np.asarray(y_perturbed_global, dtype=float)[obs_positions, :]
    if stencil is None:
        ix, iy = subdomain.expansion_coords
        stencil = Stencil.from_predecessors(
            neighbour_predecessors(subdomain.grid, ix, iy, radius_km),
            subdomain.exp_size,
        )
    analysed = analysis_modified_cholesky(
        xb[None], stencil, h_local, r_diag, y_local, ridge=ridge
    )[0]
    return analysed[interior, :]
