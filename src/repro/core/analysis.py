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
  stack of local problems: two banded ``pbsv`` calls, one for every
  regression of the stack (each a diagonal block of one SPD band) and
  one for the system, whose band is assembled from the regression
  coefficients.  The one closing behind every local analysis, per-piece
  and batched; its observation half (``H``, ``Hᵀ R⁻¹`` and the band
  entries of ``Hᵀ R⁻¹ H``) is an :class:`ObservationTerms`, built once
  per operator.
* :func:`local_analysis` — Eq. (6): that update on one sub-domain
  expansion (the ``B = 1`` stack), projected back to the interior points.

The two global forms agree exactly when ``B̂⁻¹`` is the true inverse of the
``B`` used in the gain form (tested), which is the paper's equivalence
between (3) and (5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.core.cholesky import (
    MIN_VARIANCE,
    Stencil,
    _regress_rows,
    _solve_band,
    neighbour_predecessors,
    precision_band,
)
from repro.core.domain import SubDomain
from repro.core.observations import ObservationNetwork


_NON_FINITE = (
    "non-finite values in the precision-form system "
    "(background, observations, H or B̂⁻¹)"
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


@dataclass(frozen=True)
class ObservationTerms:
    """What the closing needs of ``H`` and ``R``, which does not depend on
    the ensemble: built once per operator, reused by every analysis with
    it (the engine keeps one per run on its cached bucket geometry).

    A closing then does two CSR products (``H Xᵇ`` and
    ``Hᵀ R⁻¹ (Yˢ − H Xᵇ)``) and one fancy add of ``Hᵀ R⁻¹ H``'s lower
    entries onto the band; no sparse matrix is built per analysis.
    """

    #: ``H`` (m × n CSR)
    h: sp.csr_matrix
    #: ``Hᵀ R⁻¹`` (n × m CSR)
    ht_rinv: sp.csr_matrix
    #: lower-triangle entries of ``Hᵀ R⁻¹ H``, duplicates summed: column
    #: ``j``, diagonal ``i − j`` and value
    gram_column: np.ndarray
    gram_diagonal: np.ndarray
    gram_value: np.ndarray

    @classmethod
    def build(cls, h_operator, r_diag) -> "ObservationTerms":
        """Terms of a dense or sparse ``H`` and the diagonal of ``R``,
        which must be finite and positive."""
        r_diag = _positive_r_diag(r_diag)
        h = sp.csr_matrix(h_operator, dtype=float)
        if h.shape[0] != r_diag.size:
            raise ValueError(
                f"H has {h.shape[0]} rows but r_diag {r_diag.size} entries"
            )
        ht_rinv = h.multiply((1.0 / r_diag)[:, None]).T.tocsr()
        gram = (ht_rinv @ h).tocoo()
        gram.sum_duplicates()
        lower = gram.row >= gram.col
        return cls(
            h=h,
            ht_rinv=ht_rinv,
            gram_column=gram.col[lower],
            gram_diagonal=(gram.row - gram.col)[lower],
            gram_value=gram.data[lower],
        )

    @property
    def reach(self) -> int:
        """Sub-diagonals of ``Hᵀ R⁻¹ H`` that hold a non-zero."""
        return int(self.gram_diagonal.max(initial=0))

    def close(self, band: np.ndarray, xb: np.ndarray, y_perturbed):
        """Add ``Hᵀ R⁻¹ H`` onto ``band`` (``(n, kd + 1)``, as
        :func:`~repro.core.cholesky.precision_band` lays it out, ``kd >=
        reach``) and solve for ``δXᵃ`` of the ``(n, N)`` background.
        ``band`` is the caller's temporary: it is factorised in place."""
        if self.h.shape[1] != xb.shape[0]:
            raise ValueError(
                f"H has {self.h.shape[1]} columns for {xb.shape[0]} points"
            )
        band[self.gram_column, self.gram_diagonal] += self.gram_value
        innovations = _innovations(
            self.h @ xb, np.asarray(y_perturbed, dtype=float)
        )
        return _solve_band(band.T, self.ht_rinv @ innovations)


def _lower_band(matrix, bandwidth: int) -> np.ndarray:
    """The lower triangle of a sparse symmetric ``matrix`` as the
    ``(n, kd + 1)`` band :meth:`ObservationTerms.close` takes
    (``band[j, k] = A[j + k, j]``); ``kd`` is at least ``bandwidth`` and
    is widened to whatever the matrix reaches — never assumed."""
    coo = matrix.tocoo()
    lower = coo.row >= coo.col
    diagonal, column = (coo.row - coo.col)[lower], coo.col[lower]
    kd = max(bandwidth, int(diagonal.max(initial=0)))
    band = np.zeros((matrix.shape[0], kd + 1))
    np.add.at(band, (column, diagonal), coo.data[lower])
    return band


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
    if not np.isfinite(b_inv.data).all():  # either triangle
        raise ValueError(_NON_FINITE)
    terms = ObservationTerms.build(h_operator, r_diag)
    return xb + terms.close(_lower_band(b_inv, terms.reach), xb, y_perturbed)


def analysis_modified_cholesky(
    backgrounds,
    stencil: Stencil,
    terms: ObservationTerms,
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
    terms:
        The :class:`ObservationTerms` of the ``(m, B·n)`` observation
        operator over the stacked state and the ``(m,)`` diagonal of
        ``R`` (``ObservationTerms.build(H, r_diag)``).  ``H`` is
        block-diagonal, each row observing one piece; all-zero rows (a
        bucket's padding) contribute exactly nothing.
    y_perturbed:
        ``(m, N)`` perturbed observations.
    ridge:
        Regularisation of the regressions (see
        :func:`~repro.core.cholesky.modified_cholesky_inverse`).

    Two banded ``pbsv`` calls make the whole stack: every regression of
    every piece is one diagonal block of one SPD band
    (:func:`~repro.core.cholesky._regress_rows`), and the band of
    ``A = Lᵀ D⁻¹ L + Hᵀ R⁻¹ H`` — assembled from the coefficients by one
    ordered scatter-add (:func:`~repro.core.cholesky.precision_band`) —
    has the pieces as its diagonal blocks and the bandwidth of one piece,
    solved for all ``N`` right-hand sides at once.  Returns the
    ``(B, n, N)`` analysis stack.
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
    lower, d = _regress_rows(u, stencil, ridge, MIN_VARIANCE)
    band = precision_band(
        stencil, lower, d, max(stencil.bandwidth, terms.reach)
    )
    stacked = xb.reshape(n_batch * n, n_members)
    return (stacked + terms.close(band, stacked, y_perturbed)).reshape(
        n_batch, n, n_members
    )


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
        xb[None], stencil, ObservationTerms.build(h_local, r_diag), y_local,
        ridge=ridge,
    )[0]
    return analysed[interior, :]
