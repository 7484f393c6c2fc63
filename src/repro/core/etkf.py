"""Ensemble transform Kalman filter (ETKF): the deterministic alternative.

The stochastic (perturbed-observation) EnKF of Eq. (3) adds sampled
observation noise to every member; the ETKF (Bishop et al. 2001; Hunt et
al. 2007's LETKF is its localized form, used by several of the paper's
references [15, 19, 33]) instead *transforms* the anomaly matrix
deterministically so the analysis covariance is exact:

.. math::

    \\tilde A &= \\big[(N-1) I + (H U)^T R^{-1} (H U)\\big]^{-1} \\\\
    \\bar x^a &= \\bar x^b + U \\tilde A (HU)^T R^{-1} (y - H \\bar x^b) \\\\
    U^a &= U \\big[(N-1) \\tilde A\\big]^{1/2}

No perturbed observations, no sampling noise in the update — at the cost
of an N×N symmetric eigendecomposition per (local) analysis.

Both the global form and the sub-domain local form (mirroring Eq. 6's
domain localization) are provided; the local form accepts the same
observation-network ducks as :func:`repro.core.analysis.local_analysis`.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.core.backend import ArrayBackend, get_backend
from repro.core.domain import SubDomain


def analysis_etkf(
    background: np.ndarray,
    h_operator,
    r_diag: np.ndarray,
    y: np.ndarray,
    inflation: float = 1.0,
) -> np.ndarray:
    """Global ETKF analysis.

    Parameters
    ----------
    background:
        ``X^b`` of shape (n, N).
    h_operator:
        Linear observation operator (dense/sparse), shape (m, n).
    r_diag:
        Diagonal of ``R`` (shape (m,)).
    y:
        The *unperturbed* observation vector (m,).
    inflation:
        Multiplicative anomaly inflation applied before the transform.

    Returns the analysed ensemble (n, N).
    """
    xb = np.asarray(background, dtype=float)
    if xb.ndim != 2 or xb.shape[1] < 2:
        raise ValueError(f"background must be (n, N>=2), got {xb.shape}")
    if inflation <= 0:
        raise ValueError(f"inflation must be positive, got {inflation}")
    n_members = xb.shape[1]
    r_inv = 1.0 / np.asarray(r_diag, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if y.size != r_inv.size:
        raise ValueError(
            f"y has {y.size} entries but R has {r_inv.size} diagonal values"
        )

    mean = xb.mean(axis=1)
    anomalies = (xb - mean[:, None]) * inflation
    hu = np.asarray(h_operator @ anomalies)  # (m, N)
    innovation = y - np.asarray(h_operator @ mean)

    # N x N analysis in ensemble space.
    c = hu.T * r_inv[None, :]  # (N, m) = (HU)^T R^-1
    a_inv = (n_members - 1) * np.eye(n_members) + c @ hu
    eigvals, eigvecs = scipy.linalg.eigh(a_inv)
    eigvals = np.maximum(eigvals, 1e-12)
    a_tilde = (eigvecs / eigvals[None, :]) @ eigvecs.T
    # Symmetric square root of (N-1) * a_tilde.
    transform = (
        eigvecs * np.sqrt((n_members - 1) / eigvals)[None, :]
    ) @ eigvecs.T

    weight_mean = a_tilde @ (c @ innovation)  # (N,)
    analysed_mean = mean + anomalies @ weight_mean
    analysed_anoms = anomalies @ transform
    return analysed_mean[:, None] + analysed_anoms


def analysis_etkf_batched(
    backgrounds,
    h_operators,
    r_diags,
    ys,
    inflation: float = 1.0,
    backend: ArrayBackend | None = None,
):
    """ETKF transform over a stack of same-shaped local problems.

    ``backgrounds`` is ``(B, n, N)``, ``h_operators`` dense
    ``(B, m, n)``, ``r_diags`` ``(B, m)``, ``ys`` ``(B, m)``.  The
    per-piece N×N eigendecompositions become one batched ``eigh`` call.
    Padded observation slots (zero ``H`` rows, unit ``R``, zero ``y``)
    drop out of both ``(HU)ᵀ R⁻¹ (HU)`` and the innovation term, so
    padding is exact.

    Returns the ``(B, n, N)`` analysed stack as a backend array;
    per-slice agreement with :func:`analysis_etkf` is to reduction
    order (rtol ≤ 1e-10 contract).
    """
    bk = backend if backend is not None else get_backend()
    xp = bk.xp
    xb = bk.asarray(backgrounds, dtype=float)
    h = bk.asarray(h_operators, dtype=float)
    r_diag = bk.asarray(r_diags, dtype=float)
    y = bk.asarray(ys, dtype=float)
    if xb.ndim != 3:
        raise ValueError(f"backgrounds must be (B, n, N), got {xb.shape}")
    n_batch, n, _ = xb.shape
    if h.ndim != 3 or h.shape[0] != n_batch or h.shape[2] != n:
        raise ValueError(
            f"h_operators must be (B={n_batch}, m, n={n}), got {h.shape}"
        )
    if r_diag.shape != (n_batch, h.shape[1]) or y.shape != r_diag.shape:
        raise ValueError(
            f"r_diags and ys must be ({n_batch}, {h.shape[1]}), got "
            f"{r_diag.shape} and {y.shape}"
        )
    n_members = xb.shape[2]
    if n_members < 2:
        raise ValueError(f"backgrounds must be (B, n, N>=2), got {xb.shape}")
    if inflation <= 0:
        raise ValueError(f"inflation must be positive, got {inflation}")
    r_inv = 1.0 / r_diag  # (B, m)

    mean = xb.mean(axis=2)  # (B, n)
    anomalies = (xb - mean[:, :, None]) * inflation
    hu = h @ anomalies  # (B, m, N)
    innovation = y - bk.einsum("bmn,bn->bm", h, mean)  # (B, m)

    c = hu.transpose(0, 2, 1) * r_inv[:, None, :]  # (B, N, m)
    a_inv = c @ hu  # (B, N, N)
    eye = xp.arange(n_members)
    a_inv = bk.index_update(
        a_inv, (slice(None), eye, eye),
        a_inv[:, eye, eye] + float(n_members - 1),
    )
    eigvals, eigvecs = bk.eigh(a_inv)
    eigvals = xp.maximum(eigvals, 1e-12)
    a_tilde = (eigvecs / eigvals[:, None, :]) @ eigvecs.transpose(0, 2, 1)
    transform = (
        eigvecs * xp.sqrt((n_members - 1) / eigvals)[:, None, :]
    ) @ eigvecs.transpose(0, 2, 1)

    weight_mean = bk.einsum(
        "bij,bj->bi", a_tilde, bk.einsum("bim,bm->bi", c, innovation)
    )  # (B, N)
    analysed_mean = mean + bk.einsum("bni,bi->bn", anomalies, weight_mean)
    analysed_anoms = anomalies @ transform
    return analysed_mean[:, :, None] + analysed_anoms


def local_analysis_etkf(
    subdomain: SubDomain,
    expansion_states: np.ndarray,
    network,
    y_global: np.ndarray,
    inflation: float = 1.0,
    geometry=None,
) -> np.ndarray:
    """Domain-localized ETKF on one sub-domain expansion (LETKF-style).

    Observations inside the expansion box update the interior points; the
    transform is computed in ensemble space from the local innovations.
    An optional pre-resolved ``geometry``
    (:class:`~repro.parallel.geometry.PieceGeometry`) replaces every
    geometric derivation — ``network`` may then be ``None`` — without
    changing the numerics.  Returns the analysed interior ensemble
    (n_sd, N).
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
    else:
        interior = subdomain.interior_positions_in_expansion
        obs_positions, h_local = network.restrict_to_box(
            subdomain.exp_x_indices, subdomain.exp_y_indices
        )
    if obs_positions.size == 0:
        if inflation != 1.0:
            mean = xb.mean(axis=1, keepdims=True)
            xb = mean + inflation * (xb - mean)
        return xb[interior, :]
    y_local = np.asarray(y_global, dtype=float).ravel()[obs_positions]
    if geometry is not None:
        r_diag = geometry.r_diag
    else:
        r_diag = np.full(obs_positions.size, network.obs_error_std**2)
    analysed = analysis_etkf(xb, h_local, r_diag, y_local, inflation=inflation)
    return analysed[interior, :]
