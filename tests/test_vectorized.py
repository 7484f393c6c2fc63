"""Tests for the vectorized batched-analysis strategy.

The load-bearing contract differs from the fan-out strategies: a bucket
is factorised as one block system and the regressions of a stack reduce
in another order, so the guarantee is *tolerance-checked equivalence*
— every analysed value matches the serial engine to ``rtol <= 1e-10``
(with an absolute floor of 1e-11 for near-zero entries; solve accuracy
is normwise) — for every filter kind, localization, chaos/degraded
combination and bucketing policy, including the edge geometry: pieces
with no observations, single-piece buckets, and ragged buckets that
exercise the pad-or-split policy.  On top sit the shape-bucketer's
padding exactness proof, auto-strategy selection, the ``vectorized.*``
telemetry, the per-kernel cost-model calibration, and the tolerant
readers of payloads that carry engine-metadata fields (``strategy``, and
the ``backend`` older writers recorded).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.analysis import (
    analysis_modified_cholesky,
    analysis_precision_form,
)
from repro.core.cholesky import Stencil, modified_cholesky_inverse
from repro.core.etkf import analysis_etkf
from repro.costmodel import (
    CostParams,
    PhaseObservation,
    fit_constants,
    kernel_comp_constant,
    t_comp,
)
from repro.faults import FaultSchedule
from repro.filters import LETKF, SEnKF
from repro.filters.distributed import DistributedEnKF
from repro.models import correlated_ensemble
from repro.parallel import (
    AnalysisExecutor,
    AnalysisPlan,
    GeometryCache,
    KIND_ENKF,
    KIND_ETKF,
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
from repro.tuning import autotune

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


def make_plan(kind, n_sdx=4, n_sdy=4, xi=2, eta=2, m=40, radius=2.0,
              seed=0, n_x=16, n_y=8, n_members=10, cache=None):
    """An :class:`AnalysisPlan` over every sub-domain of a fresh problem."""
    grid, truth, states, net, y = problem(
        n_x=n_x, n_y=n_y, n_members=n_members, m=m, seed=seed
    )
    decomp = Decomposition(grid, n_sdx=n_sdx, n_sdy=n_sdy, xi=xi, eta=eta)
    rng = np.random.default_rng(seed + 1)
    if kind == KIND_ENKF:
        obs = y[:, None] + 0.3 * rng.standard_normal((net.m, n_members))
        params = {"radius_km": radius, "ridge": 1e-3}
    else:
        obs = y
        params = {"inflation": 1.03}
    return AnalysisPlan(
        kind=kind,
        pieces=list(decomp),
        states=states,
        obs=obs,
        out=np.zeros_like(states),
        network=net,
        params=params,
        cache=cache if cache is not None else GeometryCache(),
    )


def observed_groups(plan):
    """The plan's observed pieces grouped as ``run_vectorized`` groups them."""
    return _structural_groups([plan.prepare(i) for i in plan.observed])


def piece_bytes(bucket, n_members):
    """One piece's charge against the run budget: its share of the
    largest regression temporary, ``n̄ · s_max · N`` doubles."""
    s_max = max(
        [1] + ([len(p) for p in bucket.stencil.predecessors]
               if bucket.stencil is not None else [])
    )
    return bucket.exp_index.shape[1] * s_max * n_members * 8


def serial_reference(plan):
    """The serial engine's output for the same plan (fresh out array)."""
    ref_plan = AnalysisPlan(
        kind=plan.kind, pieces=plan.pieces, states=plan.states,
        obs=plan.obs, out=np.zeros_like(plan.out), network=plan.network,
        params=plan.params, cache=GeometryCache(),
    )
    with AnalysisExecutor(strategy="serial") as ex:
        ex.run(ref_plan)
    return ref_plan.out


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
        geo = GeometryCache().local_geometry(net, sd, radius_km=2.0)
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
            xb, geo.stencil, block, r.ravel(), ys.reshape(-1, ys.shape[2]),
            ridge=1e-3,
        )
        ix, iy = sd.expansion_coords
        for b in range(xb.shape[0]):
            b_inv = modified_cholesky_inverse(
                xb[b], sd.grid, ix, iy, radius_km=2.0, ridge=1e-3,
                predecessors=geo.predecessors,
            )
            ref = analysis_precision_form(xb[b], h[b], r[b], ys[b], b_inv)
            assert np.allclose(out[b], ref, rtol=RTOL, atol=ATOL)

    def test_etkf_matches_per_piece(self):
        xb, h, r, _ = self._stack(seed=5)
        y = np.random.default_rng(6).standard_normal(
            (xb.shape[0], h.shape[1])
        )
        block = sp.block_diag(list(h), format="csr")
        out = analysis_etkf(xb, block, r.ravel(), y.ravel(), inflation=1.04)
        for b in range(xb.shape[0]):
            one = analysis_etkf(xb[b:b + 1], h[b], r[b], y[b], inflation=1.04)
            assert np.allclose(out[b], one[0], rtol=RTOL, atol=ATOL)

    def test_modified_cholesky_matches_per_piece(self):
        """A piece is the ``B = 1`` stack of the same function."""
        sd, geo, xb, h, r, ys, block = self._enkf_stack()
        out = analysis_modified_cholesky(
            xb, geo.stencil, block, r.ravel(), ys.reshape(-1, ys.shape[2]),
            ridge=1e-3,
        )
        for b in range(xb.shape[0]):
            one = analysis_modified_cholesky(
                xb[b:b + 1], geo.stencil, h[b], r[b], ys[b], ridge=1e-3
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
        rng = np.random.default_rng(9)
        stencil = Stencil.from_predecessors(
            [np.arange(max(i - 3, 0), i) for i in range(xb.shape[1])],
            xb.shape[1],
        )
        unpadded = analysis_modified_cholesky(
            xb, stencil, h[0], r[0], ys[0], ridge=1e-3
        )
        padded = analysis_modified_cholesky(
            xb, stencil, sp.csr_matrix(h_p[0]), r_p[0], ys_p[0], ridge=1e-3
        )
        assert np.allclose(unpadded, padded, rtol=1e-12, atol=1e-13)

        y = rng.standard_normal((1, 4))
        y_p = np.concatenate([y, np.zeros((1, pad))], axis=1)
        etkf_unpadded = analysis_etkf(xb, h[0], r[0], y[0], inflation=1.02)
        etkf_padded = analysis_etkf(
            xb, sp.csr_matrix(h_p[0]), r_p[0], y_p[0], inflation=1.02
        )
        assert np.allclose(etkf_unpadded, etkf_padded, rtol=1e-12, atol=1e-13)

    def test_shape_mismatch_raises(self):
        sd, geo, xb, h, r, ys, block = self._enkf_stack()
        flat_ys = ys.reshape(-1, ys.shape[2])
        with pytest.raises(ValueError):  # H over fewer pieces than stacked
            analysis_modified_cholesky(
                xb, geo.stencil, sp.block_diag(list(h[:-1])), r.ravel(),
                flat_ys,
            )
        with pytest.raises(ValueError):  # a row of Yˢ missing
            analysis_modified_cholesky(
                xb, geo.stencil, block, r.ravel(), flat_ys[:-1]
            )
        with pytest.raises(ValueError):  # the stencil of another shape
            analysis_modified_cholesky(
                xb[:, :-1], geo.stencil, block, r.ravel(), flat_ys
            )
        y = ys[:, :, 0].ravel()
        with pytest.raises(ValueError):  # H over fewer pieces than stacked
            analysis_etkf(xb, sp.block_diag(list(h[:-1])), r.ravel(), y)
        with pytest.raises(ValueError):  # an entry of R missing
            analysis_etkf(xb, block, r.ravel()[:-1], y)
        with pytest.raises(ValueError):  # one observation short of B·m
            analysis_etkf(xb, block, r.ravel()[:-1], y[:-1])


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
    yield "letkf", lambda ex: LETKF(inflation=1.03, executor=ex)


class TestFilterEquivalence:
    @pytest.mark.parametrize(
        "label,make_filter", list(_filter_cases()), ids=lambda c: c
        if isinstance(c, str) else "",
    )
    def test_vectorized_matches_serial(self, label, make_filter):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = make_filter(None).assimilate(decomp, states, net, y, rng=5)
        with AnalysisExecutor(strategy="vectorized") as ex:
            out = make_filter(ex).assimilate(decomp, states, net, y, rng=5)
        assert np.allclose(ref, out, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize(
        "budget", ["default", "one-piece", "three-pieces"]
    )
    @pytest.mark.parametrize("label", ["senkf-L2-r2.0", "letkf"])
    def test_split_buckets_match_serial(self, monkeypatch, label, budget):
        """Buckets analysed in runs of pieces stay within the contract at
        every run budget — one run per bucket, one piece per run, and three
        per run on buckets of 4 and 8 (a short last run) — and the budget
        moves neither the bucketing nor its padding."""
        make_filter = dict(_filter_cases())[label]
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        stats, runs = [], []
        real_run, real_bucket = run_vectorized, vectorized._compute_bucket

        def spy_run(plan):
            stats.append(real_run(plan))
            return stats[-1]

        def spy_bucket(plan, bucket):
            runs.append((bucket, real_bucket(plan, bucket)))
            return runs[-1][1]

        def analyse():
            stats.clear()
            runs.clear()
            with AnalysisExecutor(strategy="vectorized") as ex:
                out = make_filter(ex).assimilate(decomp, states, net, y, rng=5)
            return out, [(s["n_buckets"], s["pad_waste"]) for s in stats]

        monkeypatch.setattr(executor_module, "run_vectorized", spy_run)
        monkeypatch.setattr(vectorized, "_compute_bucket", spy_bucket)
        _, whole = analyse()
        n_members = states.shape[1]
        widest = max(piece_bytes(b, n_members) for b, _ in runs)
        if budget == "one-piece":
            monkeypatch.setattr(vectorized, "_RUN_BYTES", 1)
        elif budget == "three-pieces":
            monkeypatch.setattr(vectorized, "_RUN_BYTES", 3 * widest)
        out, split = analyse()

        ref = make_filter(None).assimilate(decomp, states, net, y, rng=5)
        assert np.allclose(ref, out, rtol=RTOL, atol=ATOL)
        assert split == whole
        if budget == "one-piece":
            assert all(n_runs == b.n_batch for b, n_runs in runs)
        elif budget == "three-pieces":
            sizes = [
                (b.n_batch, n_runs) for b, n_runs in runs
                if piece_bytes(b, n_members) == widest
            ]
            assert any(n % 3 for n, _ in sizes)
            assert all(n_runs == -(-n // 3) for n, n_runs in sizes)

    def test_fanout_strategies_stay_bit_identical(self):
        """The vectorized layer must not perturb the existing contract."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = DistributedEnKF(radius_km=2.0).assimilate(
            decomp, states, net, y, rng=7
        )
        for strategy in ("serial", "thread"):
            with AnalysisExecutor(strategy=strategy, workers=2) as ex:
                out = DistributedEnKF(radius_km=2.0, executor=ex).assimilate(
                    decomp, states, net, y, rng=7
                )
            assert np.array_equal(ref, out), strategy

    def test_filter_strategy_kwarg(self):
        """Filters build (and own) a pinned-strategy executor."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        ref = DistributedEnKF(radius_km=2.0).assimilate(
            decomp, states, net, y, rng=9
        )
        filt = DistributedEnKF(radius_km=2.0, strategy="vectorized")
        try:
            assert filt.executor.strategy == "vectorized"
            out = filt.assimilate(decomp, states, net, y, rng=9)
        finally:
            filt.close()
        assert filt.executor is None  # close() released the owned executor
        assert np.allclose(ref, out, rtol=RTOL, atol=ATOL)
        with pytest.raises(ValueError, match="either executor"):
            DistributedEnKF(
                radius_km=2.0, strategy="serial",
                executor=AnalysisExecutor(strategy="serial"),
            )


# ---------------------------------------------------------------------------
# Bucketing policy: empty pieces, single-piece buckets, pad-or-split
# ---------------------------------------------------------------------------
class TestBucketing:
    @pytest.mark.parametrize("kind", [KIND_ENKF, KIND_ETKF])
    def test_empty_obs_pieces_run_exact(self, kind):
        # 2 observations over 16 pieces: most pieces see nothing.
        plan = make_plan(kind, m=2, radius=1.5)
        ref = serial_reference(plan)
        stats = run_vectorized(plan)
        assert stats["empty_pieces"] > 0
        assert stats["empty_pieces"] + stats["batched_pieces"] == len(
            plan.pieces
        )
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("kind", [KIND_ENKF, KIND_ETKF])
    def test_zero_waste_policy_forbids_padding(self, kind):
        plan = make_plan(kind, m=40)
        for group in observed_groups(plan):
            batches = _split_by_waste(group, 0.0)
            assert sorted(i for b in batches for i, _, _ in b) == sorted(
                i for i, _, _ in group
            )
            for batch in batches:  # one observation count: nothing to pad
                assert len({g.obs_positions.size for _, _, g in batch}) == 1

    def test_always_pad_policy_minimises_buckets(self):
        plan = make_plan(KIND_ENKF, m=40)
        groups = observed_groups(plan)
        # Padding merges ragged shape-groups that splitting keeps apart.
        assert all(len(_split_by_waste(g, 1.0)) == 1 for g in groups)
        assert any(len(_split_by_waste(g, 0.0)) > 1 for g in groups)

    def test_default_waste_bound_pads_and_stays_exact(self):
        plan = make_plan(KIND_ENKF, m=40)
        ref = serial_reference(plan)
        stats = run_vectorized(plan)
        assert stats["pad_slots"] > 0
        assert 0.0 < stats["pad_waste"] <= MAX_PAD_WASTE
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_single_piece_buckets(self):
        # A 2x1 split yields 2 structurally distinct pieces -> every
        # bucket holds exactly one piece; batching must still be exact.
        plan = make_plan(KIND_ENKF, n_sdx=2, n_sdy=1, m=30)
        ref = serial_reference(plan)
        stats = run_vectorized(plan)
        assert stats["n_buckets"] >= 1
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_unknown_kind_raises(self):
        plan = make_plan(KIND_ENKF)
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
        kind=st.sampled_from([KIND_ENKF, KIND_ETKF]),
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
    def test_random_shapes(self, kind, n_sdx, n_sdy, cell_x, cell_y,
                           halo, m, radius, seed):
        n_x, n_y = n_sdx * cell_x, n_sdy * cell_y
        # A network holds at most one observation per grid point: the
        # smallest grid (24 points) is below the largest drawn ``m``.
        m = min(m, n_x * n_y)
        plan = make_plan(
            kind,
            n_sdx=n_sdx, n_sdy=n_sdy, xi=halo, eta=halo, m=m,
            radius=radius, seed=seed,
            n_x=n_x, n_y=n_y, n_members=8,
        )
        ref = serial_reference(plan)
        stats = run_vectorized(plan)
        assert stats["empty_pieces"] + stats["batched_pieces"] == len(
            plan.pieces
        )
        assert stats["pad_waste"] <= MAX_PAD_WASTE
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)


# ---------------------------------------------------------------------------
# Executor integration: auto-resolution, telemetry
# ---------------------------------------------------------------------------
class TestExecutorIntegration:
    def test_auto_selects_vectorized_for_many_small_pieces(self):
        plan = make_plan(KIND_ENKF, n_sdx=4, n_sdy=4)  # 16 small pieces
        ex = AnalysisExecutor(strategy="auto")
        assert ex.resolve(plan) == "vectorized"

    def test_auto_selects_vectorized_even_with_one_worker(self):
        # The batching win is core-count independent: the vectorized
        # check runs before the worker-availability check.
        plan = make_plan(KIND_ENKF, n_sdx=4, n_sdy=4)
        ex = AnalysisExecutor(strategy="auto", workers=1)
        assert ex.resolve(plan) == "vectorized"

    def test_auto_keeps_fanout_for_few_pieces(self):
        plan = make_plan(KIND_ENKF, n_sdx=2, n_sdy=2)  # 4 pieces < 16
        ex = AnalysisExecutor(strategy="auto", workers=1)
        assert ex.resolve(plan) != "vectorized"

    def test_auto_keeps_fanout_for_huge_pieces(self):
        # 16 pieces but each expansion far beyond the mean-points
        # ceiling: per-piece BLAS dominates, batching buys nothing.
        plan = make_plan(
            KIND_ENKF, n_sdx=4, n_sdy=4, n_x=128, n_y=128, xi=8, eta=8,
        )
        ex = AnalysisExecutor(strategy="auto")
        assert ex.resolve(plan) != "vectorized"

    def test_executor_runs_vectorized(self):
        plan = make_plan(KIND_ENKF)
        ref = serial_reference(plan)
        with AnalysisExecutor(strategy="vectorized") as ex:
            n = ex.run(plan)
        assert n == len(plan.pieces)
        assert np.allclose(plan.out, ref, rtol=RTOL, atol=ATOL)

    def test_metrics_and_spans(self):
        plan = make_plan(KIND_ENKF)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor(strategy="vectorized") as ex:
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
        assert run_spans and run_spans[0].attrs["strategy"] == "vectorized"

    def test_bucket_cache_hits_across_cycles(self):
        cache = GeometryCache()
        plan = make_plan(KIND_ENKF, cache=cache)
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
# Cost model: per-kernel T_comp + autotune kernel choice
# ---------------------------------------------------------------------------
def _params(**kw):
    defaults = dict(
        n_x=48, n_y=24, n_members=8, h=240.0, xi=2, eta=1,
        a=1e-5, b=1e-9, c=2e-4, theta=5e-9,
    )
    defaults.update(kw)
    return CostParams(**defaults)


class TestCostModelKernels:
    def test_kernel_constant_resolution(self):
        p = _params(c_vectorized=5e-5)
        assert kernel_comp_constant(p, "fanout") == p.c
        assert kernel_comp_constant(p, "vectorized") == 5e-5
        with pytest.raises(ValueError, match="not calibrated"):
            kernel_comp_constant(_params(), "vectorized")
        with pytest.raises(ValueError, match="unknown analysis kernel"):
            kernel_comp_constant(p, "gpu")

    def test_t_comp_prices_the_selected_kernel(self):
        p = _params(c_vectorized=1e-5)
        fanout = t_comp(p, n_sdx=4, n_sdy=4, n_layers=2)
        vectorized = t_comp(p, n_sdx=4, n_sdy=4, n_layers=2,
                            kernel="vectorized")
        assert vectorized == pytest.approx(fanout * (1e-5 / p.c))

    def test_fit_constants_recovers_both_kernels(self):
        template = _params()
        unit = template.with_(a=1.0, b=1.0, c=1.0, theta=1.0)
        c_true, cv_true = 3e-4, 8e-5
        obs = []
        for cfg in ((4, 4, 3, 4), (4, 4, 5, 4), (4, 4, 9, 4)):
            n_sdx, n_sdy, n_layers, n_cg = cfg
            structural = t_comp(
                unit, n_sdx=n_sdx, n_sdy=n_sdy, n_layers=n_layers
            )
            for kernel, const in (("fanout", c_true),
                                  ("vectorized", cv_true)):
                obs.append(PhaseObservation(
                    n_sdx=n_sdx, n_sdy=n_sdy, n_layers=n_layers, n_cg=n_cg,
                    read_seconds=1e-3, comm_seconds=1e-4,
                    comp_seconds=const * structural, kernel=kernel,
                ))
        fit = fit_constants(obs, template)
        assert fit.params.c == pytest.approx(c_true)
        assert fit.params.c_vectorized == pytest.approx(cv_true)
        assert "comp" in fit.residuals
        assert "comp_vectorized" in fit.residuals
        assert fit.residuals["comp_vectorized"].rel_rms < 1e-12
        assert fit.summary()["constants"]["c_vectorized"] == pytest.approx(
            cv_true
        )

    def test_fit_constants_unknown_kernel_raises(self):
        obs = [PhaseObservation(
            n_sdx=4, n_sdy=4, n_layers=3, n_cg=4,
            read_seconds=1e-3, comm_seconds=1e-4, comp_seconds=1e-2,
            kernel="gpu",
        )]
        with pytest.raises(ValueError, match="unknown analysis kernel"):
            fit_constants(obs, _params())

    def test_uncalibrated_kernel_untouched_by_fit(self):
        obs = [PhaseObservation(
            n_sdx=4, n_sdy=4, n_layers=3, n_cg=4,
            read_seconds=1e-3, comm_seconds=1e-4, comp_seconds=1e-2,
        )]
        fit = fit_constants(obs, _params())
        assert fit.params.c_vectorized is None
        assert "c_vectorized" not in fit.summary()["constants"]


class TestAutotuneKernels:
    def test_auto_picks_the_cheaper_kernel(self):
        p = _params(c_vectorized=2e-5)  # 10x cheaper than fanout's c
        fanout_only = autotune(p, n_p=40, epsilon=1e-3)
        both = autotune(p, n_p=40, epsilon=1e-3, kernels="auto")
        assert fanout_only.kernel == "fanout"
        assert both.kernel == "vectorized"
        assert both.t_total < fanout_only.t_total

    def test_auto_without_calibration_sticks_to_fanout(self):
        result = autotune(_params(), n_p=40, epsilon=1e-3, kernels="auto")
        assert result.kernel == "fanout"

    def test_explicit_uncalibrated_kernel_raises(self):
        with pytest.raises(ValueError, match="not calibrated"):
            autotune(_params(), n_p=40, epsilon=1e-3, kernels="vectorized")

    def test_expensive_vectorized_loses(self):
        p = _params(c_vectorized=5e-3)  # far costlier than fanout
        result = autotune(p, n_p=40, epsilon=1e-3, kernels="auto")
        assert result.kernel == "fanout"


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
