"""Parallel execution engine for the inline analysis filters.

Five modules, composable and individually testable:

* :mod:`repro.parallel.shared` — zero-copy ``(n, N)`` ensembles in
  POSIX shared memory with an explicit create/close/unlink lifecycle;
* :mod:`repro.parallel.geometry` — memoised cycle-invariant per-piece
  geometry (observation restriction, index arrays, Cholesky stencil);
* :mod:`repro.parallel.executor` — the strategy-selected fan-out
  (serial / process / vectorized / auto); the process loop submits
  chunks as they are prepared, so piece ``l+1``'s geometry is resolved
  while piece ``l`` computes (the S-EnKF helper-thread overlap);
* :mod:`repro.parallel.vectorized` — the batched-kernel strategy:
  structurally equal pieces stacked into ``(B, ...)`` operands and
  solved in one batched linalg call per shape bucket (pad-or-split),
  against a pluggable array backend (:mod:`repro.core.backend`);
* :mod:`repro.parallel.supervise` — worker supervision policies
  (deadlines, retry, respawn budgets) and the recovery accounting that
  makes the process strategy self-healing under crashed or wedged
  workers.

The per-piece strategies (serial/process) are bit-identical to the
classic serial loop by construction: one numerical entry point
(:func:`repro.parallel.worker.compute_piece`), randomness consumed
before fan-out, disjoint interior writes.  The vectorized strategy
reorders BLAS reductions and is instead held to a tolerance-checked
equivalence contract (rtol ≤ 1e-10 against the serial reference).
"""

from repro.parallel.executor import AnalysisExecutor, AnalysisPlan, serial_executor
from repro.parallel.geometry import BucketGeometry, GeometryCache, PieceGeometry
from repro.parallel.vectorized import run_vectorized
from repro.parallel.shared import (
    AttachedArray,
    SharedArraySpec,
    SharedEnsemble,
    attach_array,
)
from repro.parallel.supervise import (
    DeadlinePolicy,
    SupervisionPolicy,
    SupervisionReport,
    SupervisionStats,
    piece_seconds_from_cost_model,
)
from repro.parallel.worker import KIND_ENKF, KIND_ETKF, compute_piece

__all__ = [
    "AnalysisExecutor",
    "AnalysisPlan",
    "AttachedArray",
    "BucketGeometry",
    "DeadlinePolicy",
    "GeometryCache",
    "KIND_ENKF",
    "KIND_ETKF",
    "PieceGeometry",
    "SharedArraySpec",
    "SharedEnsemble",
    "SupervisionPolicy",
    "SupervisionReport",
    "SupervisionStats",
    "attach_array",
    "compute_piece",
    "piece_seconds_from_cost_model",
    "run_vectorized",
    "serial_executor",
]
