"""Parallel execution engine for the inline analysis filters.

Three modules, composable and individually testable, over one numerical
entry point (:func:`repro.parallel.worker.compute_piece`):

* :mod:`repro.parallel.geometry` — memoised cycle-invariant per-piece
  geometry (observation restriction, index arrays, Cholesky stencil);
* :mod:`repro.parallel.executor` — the strategy-selected fan-out
  (serial / thread / vectorized / auto); the thread loop submits each
  piece as it is prepared, so piece ``l+1``'s geometry is resolved
  while piece ``l`` computes (the S-EnKF helper-thread overlap);
* :mod:`repro.parallel.vectorized` — the batched-kernel strategy:
  structurally equal pieces stacked into ``(B, ...)`` operands and
  analysed as one stack per shape bucket (pad-or-split).

The per-piece strategies (serial/thread) are bit-identical to the
classic serial loop by construction: one numerical entry point,
randomness consumed before fan-out, disjoint interior writes.  The
vectorized strategy reorders BLAS reductions and is instead held to a
tolerance-checked equivalence contract (rtol ≤ 1e-10 against the serial
reference).
"""

from repro.parallel.executor import AnalysisExecutor, AnalysisPlan, serial_executor
from repro.parallel.geometry import BucketGeometry, GeometryCache, PieceGeometry
from repro.parallel.vectorized import run_vectorized
from repro.parallel.worker import KIND_ENKF, compute_piece

__all__ = [
    "AnalysisExecutor",
    "AnalysisPlan",
    "BucketGeometry",
    "GeometryCache",
    "KIND_ENKF",
    "PieceGeometry",
    "compute_piece",
    "run_vectorized",
    "serial_executor",
]
