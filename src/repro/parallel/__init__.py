"""Parallel execution engine for the inline analysis filters.

One engine in three modules, composable and individually testable:

* :mod:`repro.parallel.geometry` — memoised cycle-invariant per-piece
  geometry (observation restriction, index arrays, Cholesky stencil)
  and the stacked geometry of buckets of structurally equal pieces;
* :mod:`repro.parallel.vectorized` — the batched kernel: structurally
  equal pieces stacked into ``(B, ...)`` operands and analysed in runs
  of a fixed byte size per shape bucket (pad-or-split);
* :mod:`repro.parallel.executor` — the runs fanned out over one
  persistent thread pool, ``workers`` wide.

Runs are sized from a fixed byte budget, randomness is consumed before
the fan-out and runs write disjoint interior rows, so the result is
bit-identical at every worker count.  Against the per-piece reference
(:func:`repro.parallel.worker.compute_piece`) the batched kernel, which
reorders BLAS reductions, is held to rtol ≤ 1e-10.
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
