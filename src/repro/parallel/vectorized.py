"""The vectorized strategy: stacked same-shape pieces, one batched solve.

Where the fan-out strategies hide the per-piece Python/BLAS-dispatch
cost behind concurrency, this strategy *removes* it: pieces whose
geometry is structurally identical — same expansion size, same interior
projection and (for the EnKF kind) the same modified-Cholesky stencil,
compared by digest, never assumed from translation symmetry — are
stacked into ``(B, ...)`` operands and updated as one stack by the same
function a single piece runs with ``B = 1``.  For the EnKF
(:func:`~repro.core.analysis.analysis_modified_cholesky`) the stack's
regressions are one LAPACK call per distinct stencil size and its
systems the diagonal blocks of one banded system; for the ETKF
(:func:`~repro.core.etkf.analysis_etkf`) the stack's ensemble-space
matrices are one batched ``eigh``.  The win is therefore independent of
core count, which is what lets the parallel bench assert its speedup on
a 1-CPU CI runner.

Bucketing policy: pieces first group by structural signature; within a
group, observation counts may differ, so the group is *padded* to the
largest count with exact no-op slots (zero ``H`` rows, unit ``R``,
masked observations — proven no-ops, see the kernels' docstrings)
— or *split* into sub-batches when the padded-slot fraction would
exceed :data:`MAX_PAD_WASTE`.  The realised waste is recorded
(``vectorized.pad_slots`` / ``vectorized.obs_slots`` counters,
``vectorized.pad_waste`` gauge) so the policy is observable.

Pieces with no observations are never prepared or batched: their
"analysis" is a copy (plus ETKF inflation), written for all of them at
once by :meth:`~repro.parallel.executor.AnalysisPlan.fill_unobserved`.

Numerics: stacking reorders reductions, so results match the serial
reference to rtol ≤ 1e-10, not bit-for-bit — the tolerance-checked
equivalence suite in ``tests/test_vectorized.py`` pins this contract for
every filter × localization combination.  The serial and thread
strategies are untouched and stay bit-identical.
"""

from __future__ import annotations

from repro.core.analysis import analysis_modified_cholesky
from repro.core.etkf import analysis_etkf
from repro.parallel.worker import KIND_ENKF, KIND_ETKF
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["run_vectorized"]

#: Largest padded fraction of a sub-batch's observation slots; admitting
#: a piece that would exceed it starts a new sub-batch instead.
MAX_PAD_WASTE = 0.25


def _structural_groups(prepared: list[tuple]) -> list[list[tuple]]:
    """Prepared ``(plan_index, piece, geometry)`` triples grouped by
    structural signature (expansion size, interior map, stencil), in
    signature order."""
    groups: dict[tuple, list] = {}
    for item in prepared:
        geo = item[2]
        key = (geo.expansion_flat.size, geo.interior_sig, geo.stencil_sig)
        groups.setdefault(key, []).append(item)
    return [groups[key] for key in sorted(groups)]


def _split_by_waste(
    group: list[tuple[int, object, object]], max_pad_waste: float
) -> list[list[tuple[int, object, object]]]:
    """Split one structural group into sub-batches under the waste bound.

    ``group`` holds ``(plan_index, piece, geometry)`` triples.  Sorting
    by (obs count, plan index) keeps the split deterministic and puts
    near-equal counts together, so each greedy sub-batch pads toward its
    own maximum: a new one starts whenever admitting the next piece
    would push the padded fraction above ``max_pad_waste`` (``0.0``
    forbids padding — every distinct count is its own batch; ``1.0``
    never splits).
    """
    ordered = sorted(
        group, key=lambda item: (int(item[2].obs_positions.size), item[0])
    )
    batches: list[list] = []
    current: list = []
    slots = 0  # real observation slots in `current`
    for item in ordered:
        m = int(item[2].obs_positions.size)
        if current:
            # counts ascend, so admitting `item` re-pads everything to m
            total = (len(current) + 1) * m
            waste = (total - slots - m) / total if total else 0.0
            if waste > max_pad_waste:
                batches.append(current)
                current, slots = [], 0
        current.append(item)
        slots += m
    if current:
        batches.append(current)
    return batches


def _compute_bucket(plan, bucket) -> None:
    """Analyse one stacked bucket into ``plan.out``."""
    xb = plan.states[bucket.exp_index]  # (B, n̄, N)
    if plan.kind == KIND_ENKF:
        ys = plan.obs[bucket.obs_index] * bucket.obs_mask[:, :, None]
        analysed = analysis_modified_cholesky(
            xb, bucket.stencil, bucket.h_block, bucket.r_diag,
            ys.reshape(-1, ys.shape[2]), ridge=plan.params["ridge"],
        )
    else:
        y = plan.obs.ravel()[bucket.obs_index] * bucket.obs_mask
        analysed = analysis_etkf(
            xb, bucket.h_block, bucket.r_diag, y,
            inflation=plan.params["inflation"],
        )
    interior = analysed[:, bucket.interior_positions, :]
    plan.out[bucket.interior_flat_cat] = interior.reshape(
        -1, plan.states.shape[1]
    )


def run_vectorized(plan) -> dict:
    """Run one plan under the vectorized strategy; returns bucket stats.

    The plan's observed pieces are prepared through the
    :class:`GeometryCache` (per-piece entries carry the structural
    digests), grouped, padded or split (:data:`MAX_PAD_WASTE`), stacked
    via cached :class:`~repro.parallel.geometry.BucketGeometry` entries
    and updated as stacks.  Empty-observation pieces are one
    bulk fill (exact).  Writes land in ``plan.out`` exactly like every
    other strategy.
    """
    if plan.kind not in (KIND_ENKF, KIND_ETKF):
        raise ValueError(
            f"vectorized strategy cannot run kind {plan.kind!r}"
        )
    tracer = get_tracer()
    plan.fill_unobserved()
    prepared = [plan.prepare(i) for i in plan.observed]
    n_empty = len(plan.pieces) - len(prepared)

    n_buckets = 0
    pad_slots = 0
    total_slots = 0
    for group in _structural_groups(prepared):
        for batch in _split_by_waste(group, MAX_PAD_WASTE):
            bucket, cached = plan.cache.get_bucket(
                plan.network, batch, plan.cache_radius
            )
            n_buckets += 1
            pad_slots += bucket.pad_slots
            total_slots += bucket.total_slots
            if tracer.enabled:
                with tracer.span(
                    "vectorized.bucket", category="parallel",
                    n_batch=bucket.n_batch,
                    n_exp=int(bucket.exp_index.shape[1]),
                    m_max=int(bucket.r_diag.shape[1]),
                    pad_waste=round(bucket.pad_waste, 4),
                    cached=cached,
                ):
                    _compute_bucket(plan, bucket)
            else:
                _compute_bucket(plan, bucket)

    stats = {
        "n_buckets": n_buckets,
        "batched_pieces": len(prepared),
        "empty_pieces": n_empty,
        "pad_slots": pad_slots,
        "obs_slots": total_slots,
        "pad_waste": pad_slots / total_slots if total_slots else 0.0,
    }
    if tracer.enabled:
        metrics = get_metrics()
        metrics.counter("vectorized.buckets").inc(n_buckets)
        metrics.counter("vectorized.batched_pieces").inc(
            stats["batched_pieces"]
        )
        metrics.counter("vectorized.empty_pieces").inc(n_empty)
        metrics.counter("vectorized.pad_slots").inc(pad_slots)
        metrics.counter("vectorized.obs_slots").inc(total_slots)
        metrics.gauge("vectorized.pad_waste").set(stats["pad_waste"])
    return stats
