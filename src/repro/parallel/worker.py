"""The piece-level compute function every per-piece strategy runs.

The serial loop and the thread pool both funnel through
:func:`compute_piece`, so the numerics are *one* code path and the
bit-identical guarantee of the parallel engine reduces to "same inputs,
same function".
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import local_analysis
from repro.core.etkf import local_analysis_etkf
from repro.parallel.geometry import PieceGeometry

__all__ = ["KIND_ENKF", "KIND_ETKF", "compute_piece"]

KIND_ENKF = "enkf"  #: stochastic modified-Cholesky local analysis (Eq. 6)
KIND_ETKF = "etkf"  #: deterministic local ensemble-transform analysis


def compute_piece(
    kind: str,
    piece,
    expansion_states: np.ndarray,
    obs: np.ndarray,
    geometry: PieceGeometry,
    params: dict,
) -> np.ndarray:
    """One piece's local analysis: the single numerical entry point.

    ``obs`` is the full observation payload — the perturbed ``Yˢ`` matrix
    for the EnKF kinds, the raw ``y`` vector for the ETKF — from which the
    geometry's ``obs_positions`` select the local rows.
    """
    if kind == KIND_ENKF:
        return local_analysis(
            piece,
            expansion_states,
            None,
            obs,
            radius_km=params["radius_km"],
            ridge=params["ridge"],
            geometry=geometry,
        )
    if kind == KIND_ETKF:
        return local_analysis_etkf(
            piece,
            expansion_states,
            None,
            obs,
            inflation=params["inflation"],
            geometry=geometry,
        )
    raise ValueError(f"unknown analysis kind {kind!r}")
