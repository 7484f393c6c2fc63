"""Multiplicative covariance inflation.

Standard remedy for the variance underestimation of finite ensembles in
cycling assimilation: scale anomalies about the mean by ``ρ ≥ 1`` so the
filter keeps enough spread to accept future observations.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_positive


def inflate(states: np.ndarray, factor: float) -> np.ndarray:
    """Return the ensemble with anomalies scaled by ``factor``.

    ``X ← x̄ ⊗ 1ᵀ + ρ (X − x̄ ⊗ 1ᵀ)``; the mean is untouched.  The
    result is built in one new ``(n, N)`` buffer and equals
    ``mean + factor * (states - mean)`` bit for bit (IEEE multiplication
    and addition commute).
    """
    check_positive("factor", factor)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"expected (n, N) ensemble, got {states.shape}")
    mean = states.mean(axis=1, keepdims=True)
    out = states - mean
    out *= factor
    out += mean
    return out
