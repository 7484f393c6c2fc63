"""The analysis engine: stacked same-shape pieces, one batched solve.

Per-piece analysis pays a Python/BLAS-dispatch cost per piece; this
engine removes it: pieces whose geometry is structurally identical —
same expansion size, same interior projection and the same
modified-Cholesky stencil, compared by digest, never assumed from
translation symmetry — are stacked into ``(B, ...)`` operands and
updated as one stack by the same function a single piece runs with
``B = 1``, :func:`~repro.core.analysis.analysis_modified_cholesky`: the
stack's regressions are one LAPACK call per distinct stencil size and
its systems the diagonal blocks of one banded system.  The runs of a
plan (below) fan out over the executor's pool.

Bucketing policy: pieces first group by structural signature; within a
group, observation counts may differ, so the group is *padded* to the
largest count with exact no-op slots (zero ``H`` rows, unit ``R``,
masked observations — proven no-ops, see the kernels' docstrings)
— or *split* into sub-batches when the padded-slot fraction would
exceed :data:`MAX_PAD_WASTE`.  The realised waste is recorded
(``vectorized.pad_slots`` / ``vectorized.obs_slots`` counters,
``vectorized.pad_waste`` gauge) so the policy is observable.

A bucket is one cached :class:`~repro.parallel.geometry.BucketGeometry`,
analysed in *runs* of consecutive pieces, each a slice of that geometry.
A run holds as many pieces as keep the regressions' largest temporary,
the ``(B, G, s, N)`` predecessor gather (``n̄ · s_max · N`` doubles a
piece), within :data:`_RUN_BYTES`.  The kernels' working set is then
bounded per run, not by the number of structurally equal pieces the
decomposition produces; ``w`` workers hold at most ``w`` runs' worth.

Runs are independent and write disjoint interior rows of ``plan.out``,
so every run of every bucket is one task for the executor's fan-out
(both LAPACK halves of a run release the GIL).  Only the calling thread
prepares pieces, groups them and looks up bucket geometry; each run
opens its own ``vectorized.bucket`` span, with its ``lo``/``hi`` and its
bucket's ``runs`` count, on the thread that computes it.

Pieces with no observations are never prepared or batched: their
"analysis" is a copy of the background, written for all of them at
once by :meth:`~repro.parallel.executor.AnalysisPlan.fill_unobserved`.

Numerics: stacking reorders reductions (and each run's band is its own
``pbsv``), so results match the per-piece reference
(:func:`~repro.parallel.worker.compute_piece`) to rtol ≤ 1e-10, not
bit-for-bit — ``tests/test_vectorized.py`` pins this contract for every
filter × localization combination and for split runs.  Run boundaries
depend on the fixed byte budget alone, never on the pool width, so
results are bit-identical at every worker count and equal the
plan-alone call's.
"""

from __future__ import annotations

from functools import partial

from repro.core.analysis import analysis_modified_cholesky
from repro.parallel.worker import KIND_ENKF
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

__all__ = ["run_vectorized"]

#: Largest padded fraction of a sub-batch's observation slots; admitting
#: a piece that would exceed it starts a new sub-batch instead.
MAX_PAD_WASTE = 0.25

#: Bytes one run may spend on its largest regression temporary, the
#: predecessor gather (see :func:`_pieces_per_run`).  Fixed, so that the
#: runs — and the results — do not depend on the pool width.
_RUN_BYTES = 4 * 2**20


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


def _pieces_per_run(plan, bucket) -> int:
    """How many of ``bucket``'s pieces one run holds: as many as keep the
    largest regression temporary, the ``(b, G, s, N)`` predecessor gather
    (``G <= n̄``, ``s <= s_max``), within :data:`_RUN_BYTES`."""
    s_max = 1
    if bucket.stencil.groups:
        s_max = bucket.stencil.groups[-1][1].shape[1]  # counts ascend
    n_exp = bucket.exp_index.shape[1]
    return max(1, _RUN_BYTES // (n_exp * s_max * plan.states.shape[1] * 8))


def _compute_run(plan, bucket, lo: int, hi: int, span_attrs: dict) -> None:
    """Analyse pieces ``[lo, hi)`` of one stacked bucket into their
    interior rows of ``plan.out``, under one ``vectorized.bucket`` span
    opened on the thread that computes them.

    A run is a slice of the bucket's cached geometry — pieces ``[lo, hi)``
    are rows ``[lo·m_max, hi·m_max)`` × columns ``[lo·n̄, hi·n̄)`` of the
    block-diagonal ``h_block`` — so no run rebuilds geometry, the kernels'
    temporaries are bounded by the run, not by the bucket, and runs share
    nothing they write.
    """
    n_exp = bucket.exp_index.shape[1]
    m_max = bucket.r_diag.shape[1]
    n_int = bucket.interior_positions.size
    n_members = plan.states.shape[1]
    with get_tracer().span(
        "vectorized.bucket", category="parallel", lo=lo, hi=hi, **span_attrs
    ):
        xb = plan.states[bucket.exp_index[lo:hi]]  # (b, n̄, N)
        h_block = bucket.h_block[lo * m_max:hi * m_max, lo * n_exp:hi * n_exp]
        obs_mask = bucket.obs_mask[lo:hi, :, None]
        ys = plan.obs[bucket.obs_index[lo:hi]] * obs_mask
        analysed = analysis_modified_cholesky(
            xb, bucket.stencil, h_block, bucket.r_diag[lo:hi],
            ys.reshape(-1, n_members), ridge=plan.params["ridge"],
        )
        interior = analysed[:, bucket.interior_positions, :]
        plan.out[bucket.interior_flat_cat[lo * n_int:hi * n_int]] = (
            interior.reshape(-1, n_members)
        )


def run_vectorized(plan, fan_out=None) -> dict:
    """Run one plan through the batched engine; returns bucket stats.

    The plan's observed pieces are prepared through the
    :class:`GeometryCache` (per-piece entries carry the structural
    digests), grouped, padded or split (:data:`MAX_PAD_WASTE`), stacked
    via cached :class:`~repro.parallel.geometry.BucketGeometry` entries
    and updated as stacks, one run of pieces at a time.  Empty-observation
    pieces are one bulk fill (exact).

    ``fan_out`` is the executor's fan-out body: it runs a list of
    zero-argument tasks and returns the width it ran them at.  Called
    with the plan alone, the runs go in order on the calling thread.
    Only the calling thread touches the cache.  ``stats["workers"]`` is
    the width the runs actually had.
    """
    if plan.kind != KIND_ENKF:
        raise ValueError(f"unknown analysis kind {plan.kind!r}")
    tracer = get_tracer()
    plan.fill_unobserved()
    prepared = [plan.prepare(i) for i in plan.observed]
    n_empty = len(plan.pieces) - len(prepared)

    runs = []
    n_buckets = 0
    pad_slots = 0
    total_slots = 0
    for group in _structural_groups(prepared):
        for batch in _split_by_waste(group, MAX_PAD_WASTE):
            bucket, cached = plan.cache.get_bucket(
                plan.network, batch, plan.params["radius_km"]
            )
            n_buckets += 1
            pad_slots += bucket.pad_slots
            total_slots += bucket.total_slots
            n_batch = bucket.n_batch
            per_run = _pieces_per_run(plan, bucket)
            span_attrs = dict(
                n_batch=n_batch,
                n_exp=int(bucket.exp_index.shape[1]),
                m_max=int(bucket.r_diag.shape[1]),
                pad_waste=round(bucket.pad_waste, 4),
                cached=cached,
                runs=-(-n_batch // per_run),
            )
            runs += [
                partial(
                    _compute_run, plan, bucket, lo,
                    min(lo + per_run, n_batch), span_attrs,
                )
                for lo in range(0, n_batch, per_run)
            ]
    if fan_out is not None:
        width = fan_out(runs)
    else:
        width = 1
        for run in runs:
            run()

    stats = {
        "n_buckets": n_buckets,
        "batched_pieces": len(prepared),
        "empty_pieces": n_empty,
        "pad_slots": pad_slots,
        "obs_slots": total_slots,
        "pad_waste": pad_slots / total_slots if total_slots else 0.0,
        "workers": width,
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
