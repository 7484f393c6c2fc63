"""The piece-level compute function every per-piece strategy runs.

The serial loop and the thread pool both funnel through
:func:`compute_piece`, so the numerics are *one* code path and the
bit-identical guarantee of the parallel engine reduces to "same inputs,
same function".  There is one analysis kind, the stochastic
modified-Cholesky local analysis of Eq. 6.
"""

from __future__ import annotations

import numpy as np

from repro.core.analysis import local_analysis
from repro.parallel.geometry import PieceGeometry

__all__ = ["KIND_ENKF", "compute_piece"]

KIND_ENKF = "enkf"  #: stochastic modified-Cholesky local analysis (Eq. 6)


def compute_piece(
    kind: str,
    piece,
    expansion_states: np.ndarray,
    obs: np.ndarray,
    geometry: PieceGeometry,
    params: dict,
) -> np.ndarray:
    """One piece's local analysis: the single numerical entry point.

    ``obs`` is the full perturbed observation matrix ``Yˢ``, from which
    the geometry's ``obs_positions`` select the local rows.
    """
    if kind != KIND_ENKF:
        raise ValueError(f"unknown analysis kind {kind!r}")
    return local_analysis(
        piece,
        expansion_states,
        None,
        obs,
        radius_km=params["radius_km"],
        ridge=params["ridge"],
        geometry=geometry,
    )
