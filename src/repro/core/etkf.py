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

:func:`analysis_etkf` takes a stack of problems, like
:func:`repro.core.analysis.analysis_modified_cholesky`: a global analysis
or one piece is the ``B = 1`` stack, a vectorized bucket is ``B`` pieces.
:func:`local_analysis_etkf` is the sub-domain form (mirroring Eq. 6's
domain localization) and accepts the same observation-network ducks as
:func:`repro.core.analysis.local_analysis`.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import _positive_r_diag
from repro.core.domain import SubDomain
from repro.core.inflation import inflate

_NON_FINITE = (
    "non-finite values in the ensemble-transform system "
    "(background, observations or H)"
)


def analysis_etkf(
    backgrounds: np.ndarray,
    h_operator,
    r_diag: np.ndarray,
    y: np.ndarray,
    inflation: float = 1.0,
) -> np.ndarray:
    """ETKF analysis of a stack of ``B`` independent problems.

    Parameters
    ----------
    backgrounds:
        ``(B, n, N)`` stack of background ensembles.
    h_operator:
        ``(B·m, B·n)`` observation operator over the stacked state (dense
        or sparse): block-diagonal, each block of ``m`` rows observing one
        problem.  All-zero rows with unit ``R`` and zero ``y`` (a bucket's
        padding) contribute exactly nothing.
    r_diag:
        ``(B·m,)`` diagonal of ``R``; finite and positive.
    y:
        The ``(B·m,)`` *unperturbed* observations.
    inflation:
        Multiplicative anomaly inflation applied before the transform.

    ``H Xᵇ`` is one product with the stacked state, from which ``HU`` and
    the innovation follow; the ``(B, N, N)`` ensemble-space matrices are
    decomposed by one batched ``eigh``.  Non-finite input, a non-positive
    ``r_diag`` and an operator of the wrong shape raise ``ValueError``.
    Returns the ``(B, n, N)`` analysed stack.
    """
    xb = np.asarray(backgrounds, dtype=float)
    if xb.ndim != 3 or xb.shape[2] < 2:
        raise ValueError(f"backgrounds must be (B, n, N>=2), got {xb.shape}")
    if inflation <= 0:
        raise ValueError(f"inflation must be positive, got {inflation}")
    n_batch, n, n_members = xb.shape
    r_diag = _positive_r_diag(r_diag)
    y = np.asarray(y, dtype=float).ravel()
    if y.size != r_diag.size:
        raise ValueError(
            f"y has {y.size} entries but R has {r_diag.size} diagonal values"
        )
    m, ragged = divmod(r_diag.size, n_batch)
    if ragged or h_operator.shape != (r_diag.size, n_batch * n):
        raise ValueError(
            f"h_operator has shape {h_operator.shape}, expected (B·m, B·n) "
            f"with B={n_batch}, n={n} and B·m={r_diag.size} observations"
        )
    hx = np.asarray(h_operator @ xb.reshape(n_batch * n, n_members))
    # With a finite background, H Xᵇ is finite exactly when H is.
    if not (
        np.isfinite(xb).all() and np.isfinite(y).all()
        and np.isfinite(hx).all()
    ):
        raise ValueError(_NON_FINITE)

    mean = xb.mean(axis=2)  # (B, n)
    anomalies = (xb - mean[:, :, None]) * inflation
    hx_mean = hx.mean(axis=1)
    hu = ((hx - hx_mean[:, None]) * inflation).reshape(n_batch, m, n_members)
    innovation = (y - hx_mean).reshape(n_batch, m, 1)

    r_inv = (1.0 / r_diag).reshape(n_batch, 1, m)
    c = hu.transpose(0, 2, 1) * r_inv  # (B, N, m) = (HU)ᵀ R⁻¹
    a_inv = c @ hu  # (B, N, N)
    diagonal = np.arange(n_members)
    a_inv[:, diagonal, diagonal] += n_members - 1
    eigvals, eigvecs = np.linalg.eigh(a_inv)
    eigvals = np.maximum(eigvals, 1e-12)
    eigvecs_t = eigvecs.transpose(0, 2, 1)
    a_tilde = (eigvecs / eigvals[:, None, :]) @ eigvecs_t
    # Symmetric square root of (N-1) Ã, plus the mean update's weights
    # in every column: Xᵃ = x̄ᵇ 1ᵀ + U (w̄ 1ᵀ + [(N-1) Ã]^½).
    weights = (
        eigvecs * np.sqrt((n_members - 1) / eigvals)[:, None, :]
    ) @ eigvecs_t + a_tilde @ (c @ innovation)
    return mean[:, :, None] + anomalies @ weights


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
    transform is computed in ensemble space from the local innovations
    (the ``B = 1`` stack of :func:`analysis_etkf`).  An optional
    pre-resolved ``geometry``
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
        background = xb[interior, :]
        if inflation != 1.0:
            return inflate(background, inflation)
        return background
    y_local = np.asarray(y_global, dtype=float).ravel()[obs_positions]
    if geometry is not None:
        r_diag = geometry.r_diag
    else:
        r_diag = np.full(obs_positions.size, network.obs_error_std**2)
    analysed = analysis_etkf(
        xb[None], h_local, r_diag, y_local, inflation=inflation
    )[0]
    return analysed[interior, :]
