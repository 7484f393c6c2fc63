"""The per-piece reference the batched engine is held to.

:class:`PerPieceReference` stands in for an executor: after the bulk
fill of the observation-free pieces it analyses every observed piece on
its own with :func:`~repro.parallel.worker.compute_piece`, in plan
order.  Passed as a filter's ``executor``, the filter's prologue
(inflation, perturbation) is unchanged, so the result is the per-piece
analysis of exactly the inputs the engine sees — the reference the
equivalence tests compare the engine against at rtol 1e-10.

Below it, the modified-Cholesky kernel as it was computed before the
regressions became one band — per-group dense solves, and a loop over
pairs of sub-diagonals — for ``tests/test_cholesky_kernel.py``.
"""

import numpy as np

from repro.parallel import AnalysisPlan, GeometryCache, compute_piece


class PerPieceReference:
    """An executor-shaped loop over :func:`compute_piece`."""

    def run(self, plan: AnalysisPlan) -> int:
        plan.fill_unobserved()
        for index in plan.observed:
            _, piece, geometry = plan.prepare(index)
            plan.out[geometry.interior_flat] = compute_piece(
                plan.kind, piece, plan.states[geometry.expansion_flat],
                plan.obs, geometry, plan.params,
            )
        return len(plan.pieces)


def per_piece(plan: AnalysisPlan) -> np.ndarray:
    """The per-piece analysis of ``plan``'s inputs, into a fresh array
    and through a fresh cache (``plan`` itself is not touched)."""
    ref = AnalysisPlan(
        kind=plan.kind, pieces=plan.pieces, states=plan.states,
        obs=plan.obs, out=np.zeros_like(plan.out), network=plan.network,
        params=plan.params, cache=GeometryCache(),
    )
    PerPieceReference().run(ref)
    return ref.out


# ---------------------------------------------------------------------------
# The modified-Cholesky kernel, the way it was solved before it became one
# band: test-only oracles for repro.core.cholesky
# ---------------------------------------------------------------------------
def group_regressions(u, predecessors, ridge, min_variance):
    """The regressions of a ``(B, n, N)`` anomaly stack by predecessor
    count: one ``(B, G, s, s)`` ridge-Gram stack and one batched
    ``np.linalg.solve`` per distinct count ``s``, residual variances from
    ``x_row − βᵀ X_pred``.

    Returns ``(L, d)``: the dense ``(B, n, n)`` unit lower-triangular
    ``L`` and the ``(B, n)`` floored variances.
    """
    n_batch, n, n_members = u.shape
    dof = max(n_members - 1, 1)
    lower = np.broadcast_to(np.eye(n), (n_batch, n, n)).copy()
    var = np.sum(u * u, axis=2) / dof
    sizes = np.array([len(p) for p in predecessors], dtype=int)
    for s in np.unique(sizes[sizes > 0]):
        rows = np.flatnonzero(sizes == s)
        cols = np.array([predecessors[i] for i in rows], dtype=int)
        x_pred = u[:, cols, :]  # (B, G, s, N)
        x_row = u[:, rows, :]  # (B, G, N)
        gram = x_pred @ x_pred.transpose(0, 1, 3, 2)
        lam = ridge * (np.trace(gram, axis1=2, axis2=3) / s + 1.0)
        gram[:, :, np.arange(s), np.arange(s)] += lam[:, :, None]
        beta = np.linalg.solve(gram, x_pred @ x_row[:, :, :, None])[..., 0]
        resid = x_row - (beta[:, :, None, :] @ x_pred)[:, :, 0, :]
        var[:, rows] = np.sum(resid * resid, axis=2) / dof
        lower[:, rows[:, None], cols] = -beta
    return lower, np.maximum(var, min_variance)


def dense_lower(stencil, lower):
    """The kernel's ``(B, len(offsets), n)`` sub-diagonals of ``L`` as a
    dense ``(B, n, n)`` matrix."""
    n_batch, _, n = lower.shape
    dense = np.zeros((n_batch, n, n))
    for a, offset in enumerate(stencil.offsets.tolist()):
        k = np.arange(offset, n)
        dense[:, k, k - offset] = lower[:, a, offset:]
    return dense


def pair_loop_band(stencil, lower, d):
    """``Lᵀ D⁻¹ L`` as a loop over pairs of ``L``'s sub-diagonals: one
    slice multiply-add per pair ``a <= b``, ``L[k, k−a] · L[k, k−b] /
    d[k]`` onto entry ``(k − a, k − b)``.  Returns the
    ``(B · n, bandwidth + 1)`` layout of
    :func:`repro.core.cholesky.precision_band`."""
    n_batch, n = d.shape
    offsets = stencil.offsets.tolist()
    scaled = lower / d[:, None, :]
    band = np.zeros((n_batch, n, stencil.bandwidth + 1))
    for ia, a in enumerate(offsets):
        for ib in range(ia, len(offsets)):
            b = offsets[ib]
            band[:, : n - b, b - a] += lower[:, ia, b:] * scaled[:, ib, b:]
    return band.reshape(n_batch * n, -1)
