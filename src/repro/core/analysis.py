"""The EnKF analysis equations: (3), (5) and the local analysis (6).

Three entry points:

* :func:`analysis_gain_form` — Eq. (3), the classic stochastic-EnKF update
  ``δXᵃ = B Hᵀ (R + H B Hᵀ)⁻¹ (Yˢ − H Xᵇ)``, computed without ever forming
  ``B`` (only ``HU`` products; the linear solve is in observation space).
* :func:`analysis_precision_form` — Eq. (5), the update written against an
  inverse-covariance estimate ``B̂⁻¹``:
  ``δXᵃ = (B̂⁻¹ + Hᵀ R⁻¹ H)⁻¹ Hᵀ R⁻¹ (Yˢ − H Xᵇ)`` (state-space solve).
* :func:`local_analysis` — Eq. (6): the precision-form update on one
  sub-domain expansion, projected back to the interior points.

The two global forms agree exactly when ``B̂⁻¹`` is the true inverse of the
``B`` used in the gain form (tested), which is the paper's equivalence
between (3) and (5).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.core.backend import ArrayBackend, get_backend
from repro.core.cholesky import modified_cholesky_inverse
from repro.core.domain import SubDomain
from repro.core.observations import ObservationNetwork


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
    both are taken as CSR, so the state-space system keeps the band
    structure of the modified-Cholesky ``B̂⁻¹`` and no ``n × n`` dense
    array is formed.  The system is symmetric, hence the symmetric
    minimum-degree ordering; its sparse LU is applied to all ``N``
    ensemble right-hand sides in one multi-RHS ``solve``.

    Non-finite input and a non-positive ``r_diag`` raise ``ValueError``
    (SuperLU would carry NaN/inf through to the analysis silently).
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
    r_diag = np.asarray(r_diag, dtype=float).ravel()
    if not (np.isfinite(r_diag).all() and (r_diag > 0.0).all()):
        raise ValueError("r_diag must be finite and positive")
    h = sp.csr_matrix(h_operator)
    innov = _innovations(h @ xb, np.asarray(y_perturbed, dtype=float))

    ht_rinv = h.multiply((1.0 / r_diag)[:, None]).T.tocsr()  # (n, m)
    a = (b_inv + ht_rinv @ h).tocsc()
    rhs = ht_rinv @ innov
    if not (np.isfinite(a.data).all() and np.isfinite(rhs).all()):
        raise ValueError(
            "non-finite values in the precision-form system "
            "(background, observations, H or B̂⁻¹)"
        )
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ValueError(
            f"precision-form system of size {n} is singular: {exc}"
        ) from exc
    return xb + lu.solve(rhs)


def _check_batched_shapes(xb, h, r_diag, y) -> None:
    if xb.ndim != 3:
        raise ValueError(f"backgrounds must be (B, n, N), got {xb.shape}")
    n_batch, n, _ = xb.shape
    if h.ndim != 3 or h.shape[0] != n_batch or h.shape[2] != n:
        raise ValueError(
            f"h_operators must be (B={n_batch}, m, n={n}), got {h.shape}"
        )
    m = h.shape[1]
    if r_diag.shape != (n_batch, m):
        raise ValueError(
            f"r_diags must be ({n_batch}, {m}), got {r_diag.shape}"
        )
    if y.shape[:2] != (n_batch, m):
        raise ValueError(
            f"observations must lead with ({n_batch}, {m}), got {y.shape}"
        )


def analysis_precision_form_batched(
    backgrounds,
    h_operators,
    r_diags,
    y_perturbed,
    b_inverses,
    backend: ArrayBackend | None = None,
):
    """Eq. (5) over a stack of same-shaped local problems.

    ``backgrounds`` is ``(B, n, N)``, ``h_operators`` dense
    ``(B, m, n)``, ``r_diags`` ``(B, m)``, ``y_perturbed`` ``(B, m, N)``
    and ``b_inverses`` the ``(B, n, n)`` precision stack (e.g. from
    :func:`~repro.core.cholesky.modified_cholesky_inverse_batched`).
    One batched state-space solve replaces ``B`` per-piece calls.
    Padded observation slots (zero ``H`` rows, *unit* ``R`` diagonal so
    ``R⁻¹`` is finite, zero ``Yˢ``) contribute exactly nothing to
    ``Hᵀ R⁻¹ H`` and the right-hand side.

    Returns the ``(B, n, N)`` analysis stack as a backend array;
    per-slice agreement with :func:`analysis_precision_form` is to
    reduction order (rtol ≤ 1e-10 contract), not bit-identical.
    """
    bk = backend if backend is not None else get_backend()
    xb = bk.asarray(backgrounds, dtype=float)
    h = bk.asarray(h_operators, dtype=float)
    r_diag = bk.asarray(r_diags, dtype=float)
    ys = bk.asarray(y_perturbed, dtype=float)
    _check_batched_shapes(xb, h, r_diag, ys)
    b_inv = bk.asarray(b_inverses, dtype=float)
    n_batch, n, _ = xb.shape
    if b_inv.shape != (n_batch, n, n):
        raise ValueError(
            f"B̂⁻¹ stack has shape {b_inv.shape}, expected {(n_batch, n, n)}"
        )
    r_inv = 1.0 / r_diag  # (B, m)
    hx = h @ xb  # (B, m, N)
    innov = ys - hx
    ht_rinv = h.transpose(0, 2, 1) * r_inv[:, None, :]  # (B, n, m)
    a = b_inv + ht_rinv @ h  # (B, n, n)
    rhs = ht_rinv @ innov  # (B, n, N)
    delta = bk.solve(a, rhs)
    return xb + delta


def local_analysis(
    subdomain: SubDomain,
    expansion_states: np.ndarray,
    network: ObservationNetwork | None,
    y_perturbed_global: np.ndarray,
    radius_km: float,
    b_inverse: np.ndarray | sp.spmatrix | None = None,
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
    b_inverse:
        Pre-computed local ``B̂⁻¹``, dense or sparse (optional; the banded
        modified-Cholesky estimate when omitted).
    geometry:
        Optional :class:`~repro.parallel.geometry.PieceGeometry` carrying
        the cycle-invariant artifacts (observation restriction, index
        arrays, ``R`` diagonal, Cholesky predecessor stencil).  When given
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
        ix, iy = geometry.exp_ix, geometry.exp_iy
        predecessors = geometry.predecessors
    else:
        interior = subdomain.interior_positions_in_expansion
        obs_positions, h_local = network.restrict_to_box(
            subdomain.exp_x_indices, subdomain.exp_y_indices
        )
        ix, iy = subdomain.expansion_coords
        predecessors = None

    if obs_positions.size == 0:
        # Nothing observed near this sub-domain: background is the analysis.
        return xb[interior, :]

    if b_inverse is None:
        b_inverse = modified_cholesky_inverse(
            xb, subdomain.grid, ix, iy, radius_km=radius_km, ridge=ridge,
            predecessors=predecessors,
        )
    y_local = np.asarray(y_perturbed_global, dtype=float)[obs_positions, :]
    if geometry is not None:
        r_diag = geometry.r_diag
    else:
        r_diag = np.full(obs_positions.size, network.obs_error_std**2)
    analysed = analysis_precision_form(xb, h_local, r_diag, y_local, b_inverse)
    return analysed[interior, :]
