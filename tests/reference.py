"""The per-piece reference the batched engine is held to.

:class:`PerPieceReference` stands in for an executor: after the bulk
fill of the observation-free pieces it analyses every observed piece on
its own with :func:`~repro.parallel.worker.compute_piece`, in plan
order.  Passed as a filter's ``executor``, the filter's prologue
(inflation, perturbation) is unchanged, so the result is the per-piece
analysis of exactly the inputs the engine sees — the reference the
equivalence tests compare the engine against at rtol 1e-10.
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
