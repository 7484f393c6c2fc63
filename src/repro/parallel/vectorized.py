"""The vectorized strategy: stacked same-shape pieces, one batched solve.

Where the fan-out strategies hide the per-piece Python/BLAS-dispatch
cost behind concurrency, this strategy *removes* it: pieces whose
geometry is structurally identical — same expansion size, same interior
projection and the same modified-Cholesky stencil, compared by digest,
never assumed from translation symmetry — are stacked into ``(B, ...)``
operands and updated as one stack by the same function a single piece
runs with ``B = 1``,
:func:`~repro.core.analysis.analysis_modified_cholesky`: the stack's
regressions are one LAPACK call per distinct stencil size and its
systems the diagonal blocks of one banded system.  Batching wins on one
core; the runs of a plan (below) then also fan out over the executor's
pool.

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
:data:`_RUN_BYTES` bounds the bytes of all runs in flight: with ``w``
runs in flight a run holds as many pieces as keep the regressions'
largest temporary, the ``(B, G, s, N)`` predecessor gather
(``n̄ · s_max · N`` doubles a piece), within ``_RUN_BYTES // w``.  The
kernels' working set is then bounded by the budget, not by the number
of structurally equal pieces the decomposition produces, nor by the
width of the fan-out.

Runs are independent and write disjoint interior rows of ``plan.out``,
so the executor sends every run of every bucket to its thread pool as
one task (both LAPACK halves of a run release the GIL).  Only the
calling thread prepares pieces, groups them and looks up bucket
geometry; each run opens its own ``vectorized.bucket`` span, with its
``lo``/``hi`` and its bucket's ``runs`` count, on the thread that
computes it.

Pieces with no observations are never prepared or batched: their
"analysis" is a copy of the background, written for all of them at
once by :meth:`~repro.parallel.executor.AnalysisPlan.fill_unobserved`.

Numerics: stacking reorders reductions (and each run's band is its own
``pbsv``), so results match the serial reference to rtol ≤ 1e-10, not
bit-for-bit — the tolerance-checked equivalence suite in
``tests/test_vectorized.py`` pins this contract for every filter ×
localization combination and for split runs.  Run boundaries depend on
``w``, so results are bit-identical run to run at one width, and at
``w = 1`` equal the plan-alone call's.  The serial and thread
strategies are untouched and stay bit-identical.
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

#: Bytes all runs in flight may spend on their largest regression
#: temporary, the predecessor gather (see :func:`_pieces_per_run`).
_RUN_BYTES = 8 * 2**20


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


def _pieces_per_run(plan, bucket, budget: int) -> int:
    """How many of ``bucket``'s pieces one run holds: as many as keep the
    largest regression temporary, the ``(b, G, s, N)`` predecessor gather
    (``G <= n̄``, ``s <= s_max``), within ``budget`` bytes."""
    s_max = 1
    if bucket.stencil.groups:
        s_max = bucket.stencil.groups[-1][1].shape[1]  # counts ascend
    n_exp = bucket.exp_index.shape[1]
    return max(1, budget // (n_exp * s_max * plan.states.shape[1] * 8))


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


def run_vectorized(plan, workers: int = 1, fan_out=None) -> dict:
    """Run one plan under the vectorized strategy; returns bucket stats.

    The plan's observed pieces are prepared through the
    :class:`GeometryCache` (per-piece entries carry the structural
    digests), grouped, padded or split (:data:`MAX_PAD_WASTE`), stacked
    via cached :class:`~repro.parallel.geometry.BucketGeometry` entries
    and updated as stacks, one run of pieces at a time.  Empty-observation
    pieces are one bulk fill (exact).  Writes land in ``plan.out`` exactly
    like every other strategy.

    ``workers`` runs may be in flight at once, so each run gets
    ``_RUN_BYTES // workers`` of the budget.  ``fan_out`` is the
    executor's fan-out body (it runs an iterable of zero-argument tasks
    on the pool); the runs go to it when ``workers > 1`` and there is
    more than one run, and otherwise run here, in order.  Called with the
    plan alone, runs span the whole budget on the calling thread.  Only
    the calling thread touches the cache.  ``stats["workers"]`` is the
    width the runs actually had.
    """
    if plan.kind != KIND_ENKF:
        raise ValueError(f"unknown analysis kind {plan.kind!r}")
    tracer = get_tracer()
    plan.fill_unobserved()
    prepared = [plan.prepare(i) for i in plan.observed]
    n_empty = len(plan.pieces) - len(prepared)

    budget = _RUN_BYTES // workers
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
            per_run = _pieces_per_run(plan, bucket, budget)
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
    width = max(1, min(workers, len(runs))) if fan_out is not None else 1
    if width > 1:
        fan_out(runs)
    else:
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
