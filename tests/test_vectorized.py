"""Tests for the batched analysis engine (:mod:`repro.parallel.vectorized`).

Against the per-piece reference (:func:`~repro.parallel.worker.compute_piece`,
looped by ``tests.reference.PerPieceReference``) the contract is
*tolerance-checked equivalence*: a bucket is factorised as one block
system and the regressions of a stack reduce in another order, so every
analysed value matches the reference to ``rtol <= 1e-10`` (with an
absolute floor of 1e-11 for near-zero entries; solve accuracy is
normwise) — for every filter, localization, chaos/degraded combination
and bucketing policy, including the edge geometry: pieces with no
observations, single-piece buckets, and ragged buckets that exercise the
pad-or-split policy.  On top sit the shape-bucketer's padding exactness
proof, the runs' fan-out over the executor's pool (bit-identity at every
width, the failure path, the footprint at every width, and a
``-m hammer`` race check), the ``vectorized.*`` telemetry, and the
tolerant readers of payloads that carry engine-metadata fields
(``strategy``, and the ``backend`` older writers recorded).
"""

import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.analysis import (
    ObservationTerms,
    analysis_modified_cholesky,
    analysis_precision_form,
)
from repro.core.cholesky import Stencil, modified_cholesky_inverse
from repro.faults import FaultSchedule
from repro.filters import SEnKF
from repro.filters.distributed import DistributedEnKF
from repro.models import correlated_ensemble
from repro.parallel import (
    AnalysisExecutor,
    AnalysisPlan,
    GeometryCache,
    KIND_ENKF,
    run_vectorized,
)
from repro.parallel import executor as executor_module
from repro.parallel import vectorized
from repro.parallel.vectorized import (
    MAX_PAD_WASTE,
    _split_by_waste,
    _structural_groups,
)
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_tracer,
)
from tests.reference import PerPieceReference, per_piece

#: the equivalence contract (see module docstring)
RTOL, ATOL = 1e-10, 1e-11


def problem(n_x=16, n_y=8, n_members=10, m=40, seed=0):
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(seed)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(
        grid, n_members, length_scale_km=4.0, rng=rng
    )
    net = ObservationNetwork.random(grid, m=m, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    return grid, truth, states, net, y


def make_plan(n_sdx=4, n_sdy=4, xi=2, eta=2, m=40, radius=2.0,
              seed=0, n_x=16, n_y=8, n_members=10, cache=None):
    """An :class:`AnalysisPlan` over every sub-domain of a fresh problem."""
    grid, truth, states, net, y = problem(
        n_x=n_x, n_y=n_y, n_members=n_members, m=m, seed=seed
    )
    decomp = Decomposition(grid, n_sdx=n_sdx, n_sdy=n_sdy, xi=xi, eta=eta)
    rng = np.random.default_rng(seed + 1)
    return AnalysisPlan(
        kind=KIND_ENKF,
        pieces=list(decomp),
        states=states,
        obs=y[:, None] + 0.3 * rng.standard_normal((net.m, n_members)),
        out=np.zeros_like(states),
        network=net,
        params={"radius_km": radius, "ridge": 1e-3},
        cache=cache if cache is not None else GeometryCache(),
    )


def observed_groups(plan):
    """The plan's observed pieces grouped as ``run_vectorized`` groups them."""
    return _structural_groups([plan.prepare(i) for i in plan.observed])


def piece_bytes(bucket, n_members):
    """One piece's charge against the run budget: its largest kernel
    temporary — covariance tiles, regression band, ``Lᵀ D⁻¹ L`` products
    or an anomaly copy — in doubles."""
    tables = bucket.stencil.tables
    return 8 * max(
        tables.tiles_size, tables.gram_index.size, tables.term_left.size,
        bucket.exp_index.shape[1] * n_members,
    )


# ---------------------------------------------------------------------------
# Batched kernels vs their per-piece references
# ---------------------------------------------------------------------------
class TestBatchedKernels:
    def _stack(self, n_batch=5, n=12, n_members=8, m=6, seed=0):
        rng = np.random.default_rng(seed)
        xb = rng.standard_normal((n_batch, n, n_members))
        h = rng.standard_normal((n_batch, m, n))
        r = 0.1 + rng.random((n_batch, m))
        ys = rng.standard_normal((n_batch, m, n_members))
        return xb, h, r, ys

    def _enkf_stack(self, n_batch=4, n_members=8, seed=7):
        """A stack over one sub-domain's stencil, each piece with its own
        ``H`` (the closing takes them as one block-diagonal operator)."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        sd = next(iter(decomp))
        geo = GeometryCache().get(net, sd, radius_km=2.0)[0]
        xb, h, r, ys = self._stack(
            n_batch=n_batch, n=sd.exp_size, n_members=n_members, seed=seed
        )
        block = sp.block_diag(list(h), format="csr")
        return sd, geo, xb, h, r, ys, block

    def test_precision_form_matches_per_piece(self):
        """One stacked closing == per piece, the CSR ``B̂⁻¹`` put through
        the public precision form."""
        sd, geo, xb, h, r, ys, block = self._enkf_stack()
        out = analysis_modified_cholesky(
            xb, geo.stencil, ObservationTerms.build(block, r.ravel()),
            ys.reshape(-1, ys.shape[2]), ridge=1e-3,
        )
        ix, iy = sd.expansion_coords
        for b in range(xb.shape[0]):
            b_inv = modified_cholesky_inverse(
                xb[b], sd.grid, ix, iy, radius_km=2.0, ridge=1e-3,
                predecessors=geo.stencil.predecessors,
            )
            ref = analysis_precision_form(xb[b], h[b], r[b], ys[b], b_inv)
            assert np.allclose(out[b], ref, rtol=RTOL, atol=ATOL)

    def test_modified_cholesky_matches_per_piece(self):
        """A piece is the ``B = 1`` stack of the same function."""
        sd, geo, xb, h, r, ys, block = self._enkf_stack()
        out = analysis_modified_cholesky(
            xb, geo.stencil, ObservationTerms.build(block, r.ravel()),
            ys.reshape(-1, ys.shape[2]), ridge=1e-3,
        )
        for b in range(xb.shape[0]):
            one = analysis_modified_cholesky(
                xb[b:b + 1], geo.stencil, ObservationTerms.build(h[b], r[b]),
                ys[b], ridge=1e-3,
            )
            assert np.allclose(out[b], one[0], rtol=RTOL, atol=ATOL)

    def test_padding_is_an_exact_noop(self):
        """A piece padded with zero-H/unit-R/masked-obs slots must produce
        the same analysis as the unpadded computation — the proof behind
        the pad-or-split bucketer."""
        xb, h, r, ys = self._stack(n_batch=1, m=4, seed=8)
        pad = 3
        h_p = np.concatenate([h, np.zeros((1, pad, h.shape[2]))], axis=1)
        r_p = np.concatenate([r, np.ones((1, pad))], axis=1)
        ys_p = np.concatenate(
            [ys, np.zeros((1, pad, ys.shape[2]))], axis=1
        )
        stencil = Stencil.from_predecessors(
            [np.arange(max(i - 3, 0), i) for i in range(xb.shape[1])],
            xb.shape[1],
        )
        unpadded = analysis_modified_cholesky(
            xb, stencil, ObservationTerms.build(h[0], r[0]), ys[0],
            ridge=1e-3,
        )
        padded = analysis_modified_cholesky(
            xb, stencil, ObservationTerms.build(sp.csr_matrix(h_p[0]), r_p[0]),
            ys_p[0], ridge=1e-3,
        )
        assert np.allclose(unpadded, padded, rtol=1e-12, atol=1e-13)

    def test_shape_mismatch_raises(self):
        sd, geo, xb, h, r, ys, block = self._enkf_stack()
        flat_ys = ys.reshape(-1, ys.shape[2])
        with pytest.raises(ValueError):  # H over fewer pieces than stacked
            analysis_modified_cholesky(
                xb, geo.stencil,
                ObservationTerms.build(sp.block_diag(list(h[:-1])), r.ravel()),
                flat_ys,
            )
        with pytest.raises(ValueError):  # a row of Yˢ missing
            analysis_modified_cholesky(
                xb, geo.stencil, ObservationTerms.build(block, r.ravel()),
                flat_ys[:-1],
            )
        with pytest.raises(ValueError):  # the stencil of another shape
            analysis_modified_cholesky(
                xb[:, :-1], geo.stencil,
                ObservationTerms.build(block, r.ravel()), flat_ys,
            )


# ---------------------------------------------------------------------------
# Filter-level equivalence: every filter x localization x chaos combination
# ---------------------------------------------------------------------------
def _filter_cases():
    # At radius 3.5 the largest predecessor stencil (18) exceeds the
    # 10-member ensemble's degrees of freedom, so the per-variable Gram
    # solve is rank-deficient at the default ridge and ANY change in BLAS
    # reduction order diverges far beyond rounding — the tolerance
    # contract assumes a ridge that keeps the regression conditioned
    # (see docs/PERFORMANCE.md), hence ridge=1e-3 throughout.
    # The two enkf labels are kept test ids; the cases differ in inflation.
    for radius in (2.0, 3.5):
        yield (
            f"enkf-dense-r{radius}",
            lambda ex, radius=radius: DistributedEnKF(
                radius_km=radius, inflation=1.02, ridge=1e-3, executor=ex
            ),
        )
        yield (
            f"enkf-sparse-r{radius}",
            lambda ex, radius=radius: DistributedEnKF(
                radius_km=radius, ridge=1e-3, executor=ex
            ),
        )
        yield (
            f"senkf-L2-r{radius}",
            lambda ex, radius=radius: SEnKF(
                radius_km=radius, n_layers=2, inflation=1.02, ridge=1e-3,
                executor=ex,
            ),
        )


class TestFilterEquivalence:
    @pytest.mark.parametrize(
        "label,make_filter", list(_filter_cases()), ids=lambda c: c
        if isinstance(c, str) else "",
    )
    def test_vectorized_matches_serial(self, label, make_filter):
        """The engine against the per-piece reference, filter by filter."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = make_filter(PerPieceReference()).assimilate(
            decomp, states, net, y, rng=5
        )
        with AnalysisExecutor() as ex:
            out = make_filter(ex).assimilate(decomp, states, net, y, rng=5)
        assert np.allclose(ref, out, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize(
        "budget", ["default", "one-piece", "three-pieces"]
    )
    @pytest.mark.parametrize("label", ["senkf-L2-r2.0"])
    def test_split_buckets_match_serial(self, monkeypatch, label, budget):
        """Buckets analysed in runs of pieces stay within the contract at
        every run budget — one run per bucket, one piece per run, and three
        per run on buckets of 4 and 8 (a short last run) — and the budget
        moves neither the bucketing nor its padding.  The budget is per
        run, whatever the pool width."""
        make_filter = dict(_filter_cases())[label]
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        stats, runs = [], []
        real_run, real_compute = run_vectorized, vectorized._compute_run

        def spy_run(plan, fan_out):
            stats.append(real_run(plan, fan_out))
            return stats[-1]

        def spy_compute(plan, bucket, lo, hi, span_attrs):
            runs.append((bucket, lo, hi))
            real_compute(plan, bucket, lo, hi, span_attrs)

        def analyse():
            stats.clear()
            runs.clear()
            with AnalysisExecutor() as ex:
                out = make_filter(ex).assimilate(decomp, states, net, y, rng=5)
            return out, [(s["n_buckets"], s["pad_waste"]) for s in stats]

        def runs_by_bucket():
            """Each bucket with the sorted ``(lo, hi)`` of its runs."""
            found = {}
            for bucket, lo, hi in runs:
                found.setdefault(id(bucket), (bucket, []))[1].append((lo, hi))
            return [(b, sorted(spans)) for b, spans in found.values()]

        monkeypatch.setattr(executor_module, "run_vectorized", spy_run)
        monkeypatch.setattr(vectorized, "_compute_run", spy_compute)
        _, whole = analyse()
        n_members = states.shape[1]
        widest = max(piece_bytes(b, n_members) for b, _, _ in runs)
        if budget == "one-piece":
            monkeypatch.setattr(vectorized, "_RUN_BYTES", 1)
        elif budget == "three-pieces":
            monkeypatch.setattr(vectorized, "_RUN_BYTES", 3 * widest)
        pieces_per_run = max(1, vectorized._RUN_BYTES // widest)
        out, split = analyse()

        ref = make_filter(PerPieceReference()).assimilate(
            decomp, states, net, y, rng=5
        )
        assert np.allclose(ref, out, rtol=RTOL, atol=ATOL)
        assert split == whole
        for bucket, spans in runs_by_bucket():  # each piece in one run
            starts = [lo for lo, _ in spans]
            assert starts == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == bucket.n_batch
        if budget == "one-piece":
            for bucket, spans in runs_by_bucket():
                assert len(spans) == bucket.n_batch
                assert all(hi - lo == 1 for lo, hi in spans)
        elif budget == "three-pieces":
            assert pieces_per_run == 3
            sizes = [
                (b.n_batch, len(spans)) for b, spans in runs_by_bucket()
                if piece_bytes(b, n_members) == widest
            ]
            assert any(n % pieces_per_run for n, _ in sizes)
            assert all(
                n_runs == -(-n // pieces_per_run) for n, n_runs in sizes
            )

    def test_fanout_strategies_stay_bit_identical(self):
        """Fanning the runs out moves no bit: one, two and three workers
        give the filter's default (one-worker) analysis exactly."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = DistributedEnKF(radius_km=2.0).assimilate(
            decomp, states, net, y, rng=7
        )
        for workers in (1, 2, 3):
            with AnalysisExecutor(workers=workers) as ex:
                out = DistributedEnKF(radius_km=2.0, executor=ex).assimilate(
                    decomp, states, net, y, rng=7
                )
            assert np.array_equal(ref, out), workers

    def test_filter_strategy_kwarg(self):
        """Filters build (and own) an executor from ``strategy``:
        ``"serial"`` is one worker, ``"auto"`` is ``workers`` wide; the
        deleted strategy names are refused."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = DistributedEnKF(radius_km=2.0).assimilate(
            decomp, states, net, y, rng=9
        )
        for strategy, workers, width in [("serial", None, 1),
                                         ("auto", 2, 2)]:
            filt = DistributedEnKF(
                radius_km=2.0, strategy=strategy, workers=workers
            )
            try:
                assert filt.executor.effective_workers(99) == width
                out = filt.assimilate(decomp, states, net, y, rng=9)
            finally:
                filt.close()
            assert filt.executor is None  # close() released the owned executor
            assert np.array_equal(ref, out)
        for strategy in ("thread", "vectorized"):
            with pytest.raises(ValueError, match="unknown strategy"):
                DistributedEnKF(radius_km=2.0, strategy=strategy)
        with pytest.raises(ValueError, match="either executor"):
            DistributedEnKF(
                radius_km=2.0, strategy="serial",
                executor=AnalysisExecutor(workers=1),
            )


# ---------------------------------------------------------------------------
# Bucketing policy: empty pieces, single-piece buckets, pad-or-split
# ---------------------------------------------------------------------------
class TestBucketing:
    def test_empty_obs_pieces_run_exact(self):
        # 2 observations over 16 pieces: most pieces see nothing.
        plan = make_plan(m=2, radius=1.5)
        ref = per_piece(plan)
        stats = run_vectorized(plan)
        assert stats["empty_pieces"] > 0
        assert stats["empty_pieces"] + stats["batched_pieces"] == len(
            plan.pieces
        )
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_zero_waste_policy_forbids_padding(self):
        plan = make_plan(m=40)
        for group in observed_groups(plan):
            batches = _split_by_waste(group, 0.0)
            assert sorted(i for b in batches for i, _, _ in b) == sorted(
                i for i, _, _ in group
            )
            for batch in batches:  # one observation count: nothing to pad
                assert len({g.obs_positions.size for _, _, g in batch}) == 1

    def test_always_pad_policy_minimises_buckets(self):
        plan = make_plan(m=40)
        groups = observed_groups(plan)
        # Padding merges ragged shape-groups that splitting keeps apart.
        assert all(len(_split_by_waste(g, 1.0)) == 1 for g in groups)
        assert any(len(_split_by_waste(g, 0.0)) > 1 for g in groups)

    def test_default_waste_bound_pads_and_stays_exact(self):
        plan = make_plan(m=40)
        ref = per_piece(plan)
        stats = run_vectorized(plan)
        assert stats["pad_slots"] > 0
        assert 0.0 < stats["pad_waste"] <= MAX_PAD_WASTE
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_single_piece_buckets(self):
        # A 2x1 split yields 2 structurally distinct pieces -> every
        # bucket holds exactly one piece; batching must still be exact.
        plan = make_plan(n_sdx=2, n_sdy=1, m=30)
        ref = per_piece(plan)
        stats = run_vectorized(plan)
        assert stats["n_buckets"] >= 1
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_unknown_kind_raises(self):
        plan = make_plan()
        plan.kind = "weird"
        with pytest.raises(ValueError, match="kind 'weird'"):
            run_vectorized(plan)

    def test_split_by_waste_boundaries(self):
        class _Geo:
            def __init__(self, m):
                self.obs_positions = np.arange(m)

        def group(counts):
            return [(i, None, _Geo(m)) for i, m in enumerate(counts)]

        # Equal counts never split.
        assert len(_split_by_waste(group([10, 10, 10]), 0.0)) == 1
        # 1 then 10: re-padding to 10 wastes 9/20 = 0.45 of the slots.
        assert len(_split_by_waste(group([1, 10]), 0.25)) == 2
        assert len(_split_by_waste(group([1, 10]), 0.5)) == 1
        # Zero tolerance: every distinct count is its own batch.
        assert len(_split_by_waste(group([1, 2, 3]), 0.0)) == 3


# ---------------------------------------------------------------------------
# Hypothesis: random piece shapes, batched == per-piece
# ---------------------------------------------------------------------------
class TestPropertyEquivalence:
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_sdx=st.sampled_from([2, 4]),
        n_sdy=st.sampled_from([2, 4]),
        cell_x=st.integers(min_value=3, max_value=5),
        cell_y=st.integers(min_value=2, max_value=4),
        halo=st.integers(min_value=0, max_value=2),
        m=st.integers(min_value=1, max_value=30),
        # Radii keep the predecessor stencil (<= 6 points) below the
        # ensemble's 7 degrees of freedom: outside that regime the local
        # regression is rank-deficient and equivalence between summation
        # orders is not defined (see docs/PERFORMANCE.md).
        radius=st.sampled_from([1.0, 1.8]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_shapes(self, n_sdx, n_sdy, cell_x, cell_y, halo, m,
                           radius, seed):
        n_x, n_y = n_sdx * cell_x, n_sdy * cell_y
        # A network holds at most one observation per grid point: the
        # smallest grid (24 points) is below the largest drawn ``m``.
        m = min(m, n_x * n_y)
        plan = make_plan(
            n_sdx=n_sdx, n_sdy=n_sdy, xi=halo, eta=halo, m=m,
            radius=radius, seed=seed,
            n_x=n_x, n_y=n_y, n_members=8,
        )
        ref = per_piece(plan)
        stats = run_vectorized(plan)
        assert stats["empty_pieces"] + stats["batched_pieces"] == len(
            plan.pieces
        )
        assert stats["pad_waste"] <= MAX_PAD_WASTE
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# Executor integration: the engine's name, telemetry, cache reuse
# ---------------------------------------------------------------------------
class TestExecutorIntegration:
    def test_auto_selects_vectorized_for_many_small_pieces(self):
        """``resolve()`` is the kind check and names the one engine."""
        plan = make_plan(n_sdx=4, n_sdy=4)  # 16 small pieces
        with AnalysisExecutor() as ex:
            assert ex.resolve(plan) == "vectorized"

    def test_auto_selects_vectorized_even_with_one_worker(self):
        """The engine does not depend on the width, nor on the plan's
        shape: four pieces at one worker run it too."""
        plan = make_plan(n_sdx=2, n_sdy=2)
        with AnalysisExecutor(workers=1) as ex:
            assert ex.resolve(plan) == "vectorized"

    def test_executor_runs_vectorized(self):
        plan = make_plan()
        ref = per_piece(plan)
        with AnalysisExecutor() as ex:
            n = ex.run(plan)
        assert n == len(plan.pieces)
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_metrics_and_spans(self):
        plan = make_plan()
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor() as ex:
                ex.run(plan)
        snap = metrics.snapshot()["counters"]
        assert snap["vectorized.buckets"] >= 1
        assert snap["vectorized.batched_pieces"] >= 1
        assert snap["vectorized.obs_slots"] >= snap["vectorized.pad_slots"]
        assert "vectorized.pad_waste" in metrics.snapshot()["gauges"]
        bucket_spans = [
            s for s in tracer.spans if s.name == "vectorized.bucket"
        ]
        assert bucket_spans
        assert all(s.attrs["n_batch"] >= 1 for s in bucket_spans)
        run_spans = [s for s in tracer.spans if s.name == "parallel.run"]
        assert run_spans and "strategy" not in run_spans[0].attrs

    def test_bucket_cache_hits_across_cycles(self):
        cache = GeometryCache()
        plan = make_plan(cache=cache)
        run_vectorized(plan)
        entries_after_first = cache.stats["entries"]
        tracer = Tracer()
        plan.out[:] = 0.0  # cycle 2: same problem, fresh analysis
        with use_tracer(tracer):
            run_vectorized(plan)
        # Cycle 2 rebuilt nothing: same entry count, buckets all cached.
        assert cache.stats["entries"] == entries_after_first
        bucket_spans = [
            s for s in tracer.spans if s.name == "vectorized.bucket"
        ]
        assert bucket_spans and all(s.attrs["cached"] for s in bucket_spans)


# ---------------------------------------------------------------------------
# Runs fan out over the executor's pool
# ---------------------------------------------------------------------------
def static_problem(seed=3):
    """The end-to-end benchmark's ``small_pieces_static`` shape: a 128 × 64
    grid in 8 × 8 sub-domains with two-cell halos, 24 members and 20
    observations in every sub-domain (S-EnKF in four layers: 256 pieces,
    most of them in one bucket)."""
    grid = Grid(n_x=128, n_y=64, dx_km=25.0, dy_km=25.0)
    decomp = Decomposition(grid, n_sdx=8, n_sdy=8, xi=2, eta=2)
    rng = np.random.default_rng(seed)
    states = correlated_ensemble(grid, 24, 40.0, rng=rng)
    cells = [
        (sd, rng.choice(sd.size, size=20, replace=False)) for sd in decomp
    ]
    net = ObservationNetwork(
        grid,
        np.concatenate([sd.ix0 + c % sd.n_cols for sd, c in cells]),
        np.concatenate([sd.iy0 + c // sd.n_cols for sd, c in cells]),
        0.5,
    )
    return decomp, states, net, rng.standard_normal(net.m)


def static_filter(executor):
    return SEnKF(radius_km=60.0, n_layers=4, ridge=1e-2, executor=executor)


def static_plan(seed=3):
    """One S-EnKF analysis plan over :func:`static_problem`'s pieces."""
    decomp, states, net, y = static_problem(seed)
    rng = np.random.default_rng(seed + 1)
    return AnalysisPlan(
        kind=KIND_ENKF,
        pieces=static_filter(None)._plan_pieces(decomp),
        states=states,
        obs=y[:, None] + 0.5 * rng.standard_normal((net.m, states.shape[1])),
        out=np.zeros_like(states),
        network=net,
        params={"radius_km": 60.0, "ridge": 1e-2},
    )


class TestRunFanOut:
    def test_static_shape_is_deterministic_and_within_contract(self):
        """On the ``small_pieces_static`` shape two and three runs in
        flight hash the same over repeated runs and hold the rtol
        contract against the per-piece reference; the run boundaries do
        not depend on the width, so every width's result is the
        plan-alone call's bit for bit."""
        plan = static_plan()
        ref = per_piece(plan)
        plan.out[:] = 0.0
        run_vectorized(plan)
        alone = plan.out.copy()
        assert np.allclose(alone, ref, rtol=RTOL, atol=ATOL)
        for workers in (1, 2, 3):
            digests = set()
            with AnalysisExecutor(workers=workers) as ex:
                for _ in range(2):
                    plan.out[:] = 0.0
                    ex.run(plan)
                    digests.add(
                        hashlib.sha256(plan.out.tobytes()).hexdigest()
                    )
            assert len(digests) == 1
            assert np.array_equal(plan.out, alone), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_telemetry_reports_the_fan_out_width(self, workers):
        """``parallel.run``'s ``workers`` and the ``parallel.workers`` gauge
        are the number of runs in flight, and every run has its own
        ``vectorized.bucket`` span, opened on the thread that computed it;
        the runs' ``[lo, hi)`` cover every batched piece once."""
        plan = make_plan()
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor(workers=workers) as ex:
                ex.run(plan)
        (run_span,) = [s for s in tracer.spans if s.name == "parallel.run"]
        assert run_span.attrs["workers"] == workers
        snap = metrics.snapshot()
        assert snap["gauges"]["parallel.workers"] == workers
        bucket_spans = [
            s for s in tracer.spans if s.name == "vectorized.bucket"
        ]
        assert len(bucket_spans) > 1
        tracks = {s.track for s in bucket_spans}
        if workers == 1:
            assert tracks == {run_span.track}
        else:
            assert run_span.track not in tracks
        assert all(
            0 <= s.attrs["lo"] < s.attrs["hi"] <= s.attrs["n_batch"]
            for s in bucket_spans
        )
        assert sum(s.attrs["hi"] - s.attrs["lo"] for s in bucket_spans) == (
            snap["counters"]["vectorized.batched_pieces"]
        )

    def test_run_error_surfaces_as_itself_and_executor_stays_usable(
        self, monkeypatch
    ):
        """A non-finite background fails the banded closing of the runs
        that see it: ``run()`` raises the first failing run's
        ``ValueError`` in submit order, as itself; runs that had not
        started never run; nothing writes ``plan.out`` after the raise;
        and the same executor then analyses a clean plan correctly."""
        monkeypatch.setattr(vectorized, "_RUN_BYTES", 1)  # a piece a run
        plan = make_plan()
        order = []
        real_compute = vectorized._compute_run

        def recording(plan, bucket, lo, hi, span_attrs):
            order.append((bucket.exp_index[lo][0], lo))
            real_compute(plan, bucket, lo, hi, span_attrs)

        monkeypatch.setattr(vectorized, "_compute_run", recording)
        run_vectorized(plan)  # the calling thread runs in submit order
        first_point, _ = order[0]
        plan.states[first_point] = np.nan
        with pytest.raises(ValueError) as reference_error:
            per_piece(plan)

        started, finished, raised = [], [], {}
        release = threading.Event()

        def gated(plan, bucket, lo, hi, span_attrs):
            # Hold every run until the caller has submitted them all, so
            # "not yet started" is a fixed set: the first two run, the
            # rest wait in the queue.
            key = (bucket.exp_index[lo][0], lo)
            started.append(key)
            try:
                assert release.wait(timeout=30.0)
                if key != order[0]:
                    time.sleep(0.05)  # still writing when the first fails
                real_compute(plan, bucket, lo, hi, span_attrs)
            except ValueError as error:
                raised[key] = error
                raise
            finally:
                finished.append(key)

        real_wait = executor_module.wait

        def releasing_wait(futures, **kwargs):
            release.set()
            return real_wait(futures, **kwargs)

        monkeypatch.setattr(vectorized, "_compute_run", gated)
        monkeypatch.setattr(executor_module, "wait", releasing_wait)
        ex = AnalysisExecutor(workers=2)
        with pytest.raises(ValueError) as run_error:
            ex.run(plan)
        assert sorted(finished) == sorted(started)  # joined before raising
        snapshot = plan.out.copy()
        assert run_error.value is raised[order[0]]
        assert run_error.traceback[-1].name == "_solve_band"
        assert str(run_error.value) == str(reference_error.value)
        assert order[0] in started
        assert len(started) < len(order)  # the queue behind was cancelled
        monkeypatch.undo()

        clean = make_plan()
        ex.run(clean)
        assert np.allclose(clean.out, per_piece(clean), rtol=RTOL,
                           atol=ATOL)
        ex.close()
        assert np.array_equal(plan.out, snapshot, equal_nan=True)

    @pytest.mark.hammer
    def test_hammer_fresh_network_every_run_matches_inline_runs(self):
        """The race check for concurrent runs: four pool threads
        (oversubscribed on purpose), a 1 µs switch interval and a fresh
        network every run; each fanned-out analysis must equal, bit for
        bit, the same runs executed one after another on the calling
        thread.  Deselected in tier-1, run by CI's parallel-smoke
        (``-m hammer``)."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AnalysisExecutor(workers=4) as ex:
                for seed in range(20):
                    plan = static_plan(seed)
                    ex.run(plan)
                    plan_inline = AnalysisPlan(
                        kind=plan.kind, pieces=plan.pieces,
                        states=plan.states, obs=plan.obs,
                        out=np.zeros_like(plan.out), network=plan.network,
                        params=plan.params, cache=plan.cache,
                    )
                    stats = run_vectorized(plan_inline)
                    assert stats["workers"] == 1
                    assert np.array_equal(plan.out, plan_inline.out), (
                        f"run {seed} diverged"
                    )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_footprint_is_bounded_at_every_width(self, workers):
        """One warm S-EnKF ``assimilate`` on the ``small_pieces_static``
        shape keeps its traced peak within 24 MiB with one, two or four
        runs in flight: ``_RUN_BYTES`` bounds each run's largest
        temporary, so ``w`` runs in flight hold about ``w`` budgets
        (6.5, 10.9 and 17–20 MiB measured at 1, 2 and 4 workers)."""
        decomp, states, net, y = static_problem()
        with AnalysisExecutor(workers=workers) as ex:
            filt = static_filter(ex)
            filt.assimilate(decomp, states, net, y, rng=1)  # warm the cache
            tracemalloc.start()
            try:
                filt.assimilate(decomp, states, net, y, rng=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 24 * 2**20


# ---------------------------------------------------------------------------
# Forward/backward compat: payloads that carry strategy/backend fields
# ---------------------------------------------------------------------------
class TestPayloadCompat:
    def test_fault_schedule_ignores_engine_metadata(self):
        fs = FaultSchedule(seed=3, disk_fault_rate=0.1)
        data = fs.to_dict()
        data["strategy"] = "vectorized"
        data["backend"] = "numpy"
        assert FaultSchedule.from_dict(data) == fs
        # Round-trip the other way: serialized new-style, rebuilt, equal.
        assert FaultSchedule.from_dict(
            FaultSchedule.from_dict(data).to_dict()
        ) == fs

    def test_fault_schedule_still_rejects_unknown_fault_fields(self):
        data = FaultSchedule(seed=3).to_dict()
        data["quantum_fault_rate"] = 0.5
        with pytest.raises(ValueError, match="unknown FaultSchedule"):
            FaultSchedule.from_dict(data)
