"""The analysis kind and the per-piece reference analysis.

There is one analysis kind, the stochastic modified-Cholesky local
analysis of Eq. 6 (:data:`KIND_ENKF`).  :func:`compute_piece` analyses
one piece on its own; it is not an engine path (the engine is the
batched kernel of :mod:`repro.parallel.vectorized`) but the reference
the engine is held to — rtol 1e-10 — by the equivalence tests and the
end-to-end benchmark's kernel probe.
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
    """One piece's local analysis, the per-piece reference.

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
