"""Multiplicative covariance inflation.

Standard remedy for the variance underestimation of finite ensembles in
cycling assimilation: scale anomalies about the mean by ``ρ ≥ 1`` so the
filter keeps enough spread to accept future observations.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive


def inflate(
    states: np.ndarray, factor: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Return the ensemble with anomalies scaled by ``factor``.

    ``X ← x̄ ⊗ 1ᵀ + ρ (X − x̄ ⊗ 1ᵀ)``; the mean is untouched.  The
    result is built in one ``(n, N)`` buffer — a new one, or ``out``
    (which may be ``states`` itself: each row's mean is taken first) —
    and equals ``mean + factor * (states - mean)`` bit for bit (IEEE
    multiplication and addition commute).  Rows are independent, so
    inflating a gather of rows equals gathering the inflated rows.
    """
    check_positive("factor", factor)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"expected (n, N) ensemble, got {states.shape}")
    mean = states.mean(axis=1, keepdims=True)
    out = np.subtract(states, mean, out=out)
    out *= factor
    out += mean
    return out
