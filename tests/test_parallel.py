"""Tests for the parallel analysis engine (:mod:`repro.parallel`).

The load-bearing guarantee is *bit-identity*: both per-piece execution
strategies — serial loop, thread pool — must produce byte-for-byte the
same analysis as the classic serial engine, for every filter
(DistributedEnKF, layered S-EnKF), including the degenerate
configurations (one worker, more workers than pieces, sub-domains with
no observations).  On top sit the geometry cache's reuse semantics (a
cycling campaign must never re-derive cycle-invariant geometry), the
thread loop's failure semantics, and the telemetry flow from pool
threads into the submitting thread's tracer.
"""

import gc
import os
import pickle
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.domain import SubDomain
from repro.filters import PEnKF, SEnKF
from repro.filters.distributed import DistributedEnKF
from repro.models import correlated_ensemble
from repro.parallel import (
    AnalysisExecutor,
    AnalysisPlan,
    GeometryCache,
    KIND_ENKF,
)
from repro.parallel import executor as executor_module
from repro.parallel.executor import STRATEGIES
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_thread_metrics,
    use_tracer,
)

#: the strategies held to bit-identity with the classic serial engine
#: (``auto`` only picks among the others; ``vectorized`` is held to
#: rtol 1e-10 in tests/test_vectorized.py)
BIT_IDENTICAL = tuple(s for s in STRATEGIES if s not in ("auto", "vectorized"))


def problem(n_x=16, n_y=8, n_members=12, m=40, seed=0):
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(seed)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(
        grid, n_members, length_scale_km=4.0, rng=rng
    )
    net = ObservationNetwork.random(grid, m=m, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    return grid, truth, states, net, y


def enkf_plan(n_sdx=2, n_sdy=2, xi=1, eta=1, obs_columns=None):
    """A small real EnKF plan over ``n_sdx x n_sdy`` sub-domains;
    ``obs_columns`` keeps only the observations in those grid columns."""
    grid, truth, states, net, y = problem()
    if obs_columns is not None:
        keep = np.isin(net.ix, obs_columns)
        net = ObservationNetwork(
            grid, ix=net.ix[keep], iy=net.iy[keep], obs_error_std=0.3
        )
        y = y[keep]
    decomp = Decomposition(grid, n_sdx=n_sdx, n_sdy=n_sdy, xi=xi, eta=eta)
    return AnalysisPlan(
        kind=KIND_ENKF, pieces=list(decomp), states=states,
        obs=np.repeat(y[:, None], states.shape[1], axis=1),
        out=np.zeros_like(states), network=net,
        params={"radius_km": 2.0, "ridge": 1e-8},
    )


def shape_only_plan(n_pieces, points_per_piece, n_observed):
    """A plan carrying only what ``resolve()`` reads: kind, expansion
    sizes and which pieces are observed (the first ``n_observed``)."""
    pieces = [SimpleNamespace(exp_size=points_per_piece)] * n_pieces
    plan = AnalysisPlan(
        kind=KIND_ENKF, pieces=pieces, states=None, obs=None, out=None,
        network=None, params={},
    )
    plan.observed = tuple(range(n_observed))
    return plan


# ---------------------------------------------------------------------------
# Geometry cache
# ---------------------------------------------------------------------------
class TestGeometryCache:
    def _setup(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        return decomp, net

    def test_hit_on_second_lookup(self):
        decomp, net = self._setup()
        cache = GeometryCache()
        sd = next(iter(decomp))
        geo1, cached1 = cache.get(net, sd, radius_km=2.0)
        geo2, cached2 = cache.get(net, sd, radius_km=2.0)
        assert (cached1, cached2) == (False, True)
        assert geo1 is geo2
        stats = cache.stats
        assert {k: stats[k] for k in ("hits", "misses", "entries")} == {
            "hits": 1, "misses": 1, "entries": 1
        }
        assert stats["bytes"] == cache.nbytes() > 0

    def test_structurally_equal_piece_hits(self):
        # S-EnKF rebuilds equal layer SubDomains every call; the cache
        # must key them structurally, not by object identity.
        decomp, net = self._setup()
        cache = GeometryCache()
        sd = next(iter(decomp))
        clone = SubDomain(grid=sd.grid, i=sd.i, j=sd.j, ix0=sd.ix0,
                          ix1=sd.ix1, iy0=sd.iy0, iy1=sd.iy1,
                          xi=sd.xi, eta=sd.eta)
        cache.get(net, sd, radius_km=2.0)
        _, cached = cache.get(net, clone, radius_km=2.0)
        assert cached

    def test_distinct_network_and_radius_miss(self):
        decomp, net = self._setup()
        other_net = ObservationNetwork.random(
            decomp.grid, m=10, rng=np.random.default_rng(9)
        )
        cache = GeometryCache()
        sd = next(iter(decomp))
        cache.get(net, sd, radius_km=2.0)
        assert not cache.get(other_net, sd, radius_km=2.0)[1]
        assert not cache.get(net, sd, radius_km=3.0)[1]

    def test_maxsize_evicts_oldest(self):
        decomp, net = self._setup()
        cache = GeometryCache(maxsize=2)
        pieces = list(decomp)[:3]
        for sd in pieces:
            cache.get(net, sd, radius_km=2.0)
        assert len(cache) == 2
        assert not cache.get(net, pieces[0], radius_km=2.0)[1]  # evicted

    def test_eviction_unpins_the_network(self):
        """A bounded cache fed a new network per cycle must not keep every
        network it ever saw alive: the pin goes with the last entry."""
        decomp, net = self._setup()
        cache = GeometryCache(maxsize=4)
        pieces = list(decomp)[:2]
        refs = []
        for seed in range(50):
            throwaway = ObservationNetwork.random(
                decomp.grid, m=10, rng=np.random.default_rng(seed)
            )
            refs.append(weakref.ref(throwaway))
            items = [
                (i, sd, cache.get(throwaway, sd, radius_km=2.0)[0])
                for i, sd in enumerate(pieces)
            ]
            cache.get_bucket(throwaway, items[:1], radius_km=2.0)
            del throwaway, items
        gc.collect()
        assert len(cache) == 4
        alive = [r for r in refs if r() is not None]
        assert len(alive) <= 4  # at most one pinned network per entry
        assert refs[0]() is None  # long evicted: collectable

    def test_geometry_matches_direct_derivation(self):
        decomp, net = self._setup()
        sd = next(iter(decomp))
        geo = GeometryCache().local_geometry(net, sd, radius_km=2.0)
        positions, h_local = net.restrict_to_box(
            sd.exp_x_indices, sd.exp_y_indices
        )
        assert np.array_equal(geo.obs_positions, positions)
        assert (geo.h_local != h_local).nnz == 0
        assert np.array_equal(geo.interior_positions,
                              sd.interior_positions_in_expansion)
        assert geo.predecessors is not None

    def test_cycling_never_rederives_geometry(self, monkeypatch):
        """Across cycles, restrict_to_box and the Cholesky stencil are
        computed exactly once per piece (the cache eliminates them)."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        calls = {"restrict": 0, "stencil": 0}

        real_restrict = ObservationNetwork.restrict_to_box

        def counting_restrict(self, *args, **kwargs):
            calls["restrict"] += 1
            return real_restrict(self, *args, **kwargs)

        monkeypatch.setattr(
            ObservationNetwork, "restrict_to_box", counting_restrict
        )
        import repro.parallel.geometry as geometry_mod

        real_stencil = geometry_mod.neighbour_predecessors

        def counting_stencil(*args, **kwargs):
            calls["stencil"] += 1
            return real_stencil(*args, **kwargs)

        monkeypatch.setattr(
            geometry_mod, "neighbour_predecessors", counting_stencil
        )

        filt = DistributedEnKF(radius_km=2.0, inflation=1.05)
        filt.assimilate(decomp, states, net, y, rng=1)
        first_cycle = dict(calls)
        assert first_cycle["restrict"] == decomp.n_subdomains
        for _ in range(3):
            filt.assimilate(decomp, states, net, y, rng=1)
        assert calls == first_cycle  # later cycles: zero re-derivations


# ---------------------------------------------------------------------------
# Executor mechanics
# ---------------------------------------------------------------------------
class TestExecutorConfig:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AnalysisExecutor(strategy="gpu")
        with pytest.raises(ValueError):
            AnalysisExecutor(workers=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            AnalysisExecutor(strategy="process")  # deleted, no alias
        assert STRATEGIES == ("auto", "serial", "thread", "vectorized")

    @pytest.mark.parametrize("strategy", ["serial", "thread", "vectorized"])
    def test_deleted_kind_is_rejected_not_run_as_enkf(self, strategy):
        """A plan of the deleted ensemble-transform kind, as its filter
        built it (raw ``y``, an ``inflation`` parameter), raises before
        anything is written or cached; the same executor then runs a
        clean EnKF plan exactly as a fresh one does."""
        stale = enkf_plan(n_sdx=4, n_sdy=2)
        stale.kind = "etkf"
        stale.obs = stale.obs[:, 0]
        stale.params = {"inflation": 1.03}
        stale.out[:] = np.nan
        with AnalysisExecutor(strategy=strategy, workers=2) as ex:
            with pytest.raises(
                ValueError, match=f"unknown analysis kind {stale.kind!r}"
            ):
                ex.run(stale)
            assert np.isnan(stale.out).all() and len(stale.cache) == 0
            clean = enkf_plan(n_sdx=4, n_sdy=2)
            ex.run(clean)
        ref = enkf_plan(n_sdx=4, n_sdy=2)
        with AnalysisExecutor(strategy=strategy, workers=2) as fresh:
            fresh.run(ref)
        assert np.array_equal(clean.out, ref.out)

    def test_closed_executor_refuses_work(self):
        ex = AnalysisExecutor(strategy="serial")
        ex.close()
        with pytest.raises(ValueError):
            ex.run(enkf_plan())

    def test_auto_resolves_serial_for_tiny_plans(self):
        plan = enkf_plan()
        with AnalysisExecutor(strategy="auto", workers=4) as ex:
            assert ex.resolve(plan) == "serial"
        with AnalysisExecutor(strategy="auto", workers=1) as ex:
            assert ex.resolve(plan) == "serial"

    @pytest.mark.parametrize("n_pieces,points,n_observed,expected", [
        (256, 120, 256, "vectorized"),  # small_pieces_static
        (16, 880, 16, "thread"),        # large_pieces_moving
        (200, 1156, 200, "thread"),     # the io_* grid, observed everywhere
        (200, 1156, 1, "serial"),       # io_bar / io_block: one observed
        (4, 1000, 4, "serial"),     # under the serial ceiling (8 192 points)
        (4, 2048, 4, "thread"),     # first plan at the serial ceiling
    ], ids=[
        "256-120-vectorized", "16-880-thread", "200-1156-thread",
        "200-1156-one-observed-serial", "4-1000-serial", "4-2048-thread",
    ])
    def test_auto_pinned_on_the_benchmark_plan_shapes(
        self, n_pieces, points, n_observed, expected
    ):
        """What ``auto`` picks on BENCHMARK.json's four workloads with
        two workers, sized by the observed pieces.  A PR that retunes
        ``resolve()`` must change this table on purpose."""
        with AnalysisExecutor(strategy="auto", workers=2) as ex:
            plan = shape_only_plan(n_pieces, points, n_observed)
            assert ex.resolve(plan) == expected

    def test_auto_on_the_io_shape_starts_no_pool(self):
        """200 pieces of 34 x 34 points with one observed cluster (the
        ``io_*`` workloads' plan): ``auto`` runs it on the calling
        thread — no pool is started."""
        grid = Grid(n_x=600, n_y=300, dx_km=25.0, dy_km=25.0)
        decomp = Decomposition(grid, n_sdx=20, n_sdy=10, xi=2, eta=2)
        rng = np.random.default_rng(15)
        states = rng.standard_normal((grid.n, 4))
        box = np.arange(6)
        net = ObservationNetwork(
            grid, ix=np.tile(312 + box, 6), iy=np.repeat(162 + box, 6),
            obs_error_std=0.5,
        )
        y = rng.standard_normal(net.m)
        filt = DistributedEnKF(
            radius_km=60.0, inflation=1.05, ridge=1e-2, workers=2
        )
        try:
            out = filt.assimilate(decomp, states, net, y, rng=1)
            assert filt.executor._pool is None
        finally:
            filt.close()
        ref = DistributedEnKF(
            radius_km=60.0, inflation=1.05, ridge=1e-2
        ).assimilate(decomp, states, net, y, rng=1)
        assert np.array_equal(out, ref)

    def test_effective_workers_capped_by_pieces(self):
        ex = AnalysisExecutor(workers=16)
        assert ex.effective_workers(3) == 3
        ex.close()

    def test_filter_rejects_executor_and_workers(self):
        with pytest.raises(ValueError):
            DistributedEnKF(radius_km=2.0, workers=2,
                            executor=AnalysisExecutor(strategy="serial"))

    def test_subdomain_pickles_without_cached_arrays(self):
        grid = Grid(n_x=8, n_y=4, dx_km=1.0, dy_km=1.0)
        sd = Decomposition(grid, 2, 2, xi=1, eta=1).subdomain(0, 0)
        _ = sd.expansion_flat  # populate the caches
        clone = pickle.loads(pickle.dumps(sd))
        assert "expansion_flat" not in vars(clone)  # rebuilt lazily, not shipped
        assert np.array_equal(clone.expansion_flat, sd.expansion_flat)


class TestOversubscriptionWarning:
    """A pool of threads each running a multi-threaded BLAS oversubscribes
    the CPUs; the executor says so once per process and changes nothing."""

    @pytest.fixture(autouse=True)
    def fresh_process(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_oversubscription_warned", False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for name in executor_module._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def runtime_warnings(workers=2, strategy="thread"):
        """Two executors, two fanned-out runs each."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                with AnalysisExecutor(strategy=strategy, workers=workers) as ex:
                    ex.run(enkf_plan())
                    ex.run(enkf_plan())
        return [w for w in caught if w.category is RuntimeWarning]

    def test_unpinned_blas_warns_once(self):
        (warning,) = self.runtime_warnings()
        assert "OPENBLAS_NUM_THREADS=1" in str(warning.message)

    @pytest.mark.parametrize("strategy", ["thread", "vectorized"])
    def test_warning_points_at_the_caller_of_run(self, strategy):
        """Per-piece tasks and vectorized runs reach the pool through
        frames of different depth; both name the line calling ``run``."""
        (warning,) = self.runtime_warnings(strategy=strategy)
        assert warning.filename == __file__

    def test_one_blas_thread_is_silent(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert self.runtime_warnings() == []

    def test_smallest_set_variable_counts(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        assert self.runtime_warnings() == []

    def test_one_worker_is_silent(self):
        assert self.runtime_warnings(workers=1) == []


# ---------------------------------------------------------------------------
# Bit-identity across strategies and filters
# ---------------------------------------------------------------------------
def _enkf_pair(executor):
    serial = DistributedEnKF(radius_km=2.0, inflation=1.05)
    parallel = DistributedEnKF(radius_km=2.0, inflation=1.05,
                               executor=executor)
    return serial, parallel


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", BIT_IDENTICAL)
    def test_distributed_enkf(self, strategy):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        with AnalysisExecutor(strategy=strategy, workers=2) as ex:
            serial, parallel = _enkf_pair(ex)
            ref = serial.assimilate(decomp, states, net, y, rng=7)
            out = parallel.assimilate(decomp, states, net, y, rng=7)
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize("strategy", BIT_IDENTICAL)
    def test_senkf_layered(self, strategy):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        serial = SEnKF(radius_km=2.0, n_layers=2, inflation=1.02)
        ref = serial.assimilate(decomp, states, net, y, rng=5)
        with AnalysisExecutor(strategy=strategy, workers=2) as ex:
            parallel = SEnKF(radius_km=2.0, n_layers=2, inflation=1.02,
                             executor=ex)
            out = parallel.assimilate(decomp, states, net, y, rng=5)
        assert np.array_equal(ref, out)

    def test_workers_one_is_bitwise_serial(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        serial = DistributedEnKF(radius_km=2.0)
        ref = serial.assimilate(decomp, states, net, y, rng=11)
        filt = DistributedEnKF(radius_km=2.0, workers=1)
        try:
            out = filt.assimilate(decomp, states, net, y, rng=11)
        finally:
            filt.close()
        assert np.array_equal(ref, out)

    def test_more_workers_than_subdomains(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        ref = DistributedEnKF(radius_km=2.0).assimilate(
            decomp, states, net, y, rng=2
        )
        with AnalysisExecutor(strategy="thread", workers=16) as ex:
            out = DistributedEnKF(radius_km=2.0, executor=ex).assimilate(
                decomp, states, net, y, rng=2
            )
        assert np.array_equal(ref, out)

    def test_empty_observation_subdomains_under_thread_pool(self):
        """Sub-domains whose expansion sees no observation return the
        (inflated) background — also under the thread pool."""
        grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
        rng = np.random.default_rng(4)
        states = rng.standard_normal((grid.n, 8))
        # All observations in the left quarter: right-side boxes are empty.
        net = ObservationNetwork(
            grid, ix=np.arange(4), iy=np.zeros(4, dtype=int),
            obs_error_std=0.5,
        )
        y = rng.standard_normal(net.m)
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        empty = [
            sd for sd in decomp
            if net.restrict_to_box(sd.exp_x_indices, sd.exp_y_indices)[0].size == 0
        ]
        assert empty, "fixture must include unobserved sub-domains"
        ref = DistributedEnKF(radius_km=2.0, inflation=1.1).assimilate(
            decomp, states, net, y, rng=6
        )
        with AnalysisExecutor(strategy="thread", workers=2) as ex:
            out = DistributedEnKF(radius_km=2.0, inflation=1.1,
                                  executor=ex).assimilate(
                decomp, states, net, y, rng=6
            )
        assert np.array_equal(ref, out)

    def test_repeated_calls_reuse_pool_and_stay_identical(self):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        serial = DistributedEnKF(radius_km=2.0)
        with AnalysisExecutor(strategy="thread", workers=2) as ex:
            filt = DistributedEnKF(radius_km=2.0, executor=ex)
            for seed in (1, 2, 3):
                ref = serial.assimilate(decomp, states, net, y, rng=seed)
                out = filt.assimilate(decomp, states, net, y, rng=seed)
                assert np.array_equal(ref, out)

    def test_degraded_analysis_matches_inflation_override(self):
        """Satellite: graceful degradation no longer copies the filter —
        the compensation arrives as assimilate's per-call override."""
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        filt = DistributedEnKF(radius_km=2.0, inflation=1.05)
        analysed, result = filt.assimilate_degraded(
            decomp, states, net, y, dropped=(1, 4), rng=9
        )
        assert filt.inflation == 1.05  # engine state untouched
        expected = filt.assimilate(
            decomp, states[:, result.surviving], net, y, rng=9,
            inflation=1.05 * result.compensation,
        )
        assert np.array_equal(analysed, expected)


# ---------------------------------------------------------------------------
# The thread loop
# ---------------------------------------------------------------------------
def large_pieces_problem(seed, n_x=144, n_y=72):
    """The ``large_pieces_moving`` shape: 16 pieces of 880 expansion
    points (240 on a 64 x 32 grid), a fresh network object per seed."""
    grid = Grid(n_x=n_x, n_y=n_y, dx_km=25.0, dy_km=25.0)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((grid.n, 8))
    net = ObservationNetwork.random(
        grid, m=400 * grid.n // 10_368, obs_error_std=0.5, rng=rng
    )
    y = rng.standard_normal(net.m)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=4, xi=2, eta=2)
    return decomp, states, net, y


def hammer_thread_loop(n_runs, **grid_size):
    """Thread fan-out on four pool threads (oversubscribed on purpose)
    with a short switch interval and a fresh network every run; each run
    must be ``array_equal`` to serial."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AnalysisExecutor(strategy="thread", workers=4) as ex:
            threaded = DistributedEnKF(
                radius_km=60.0, inflation=1.05, ridge=1e-2, executor=ex
            )
            serial = DistributedEnKF(
                radius_km=60.0, inflation=1.05, ridge=1e-2
            )
            for seed in range(n_runs):
                decomp, states, net, y = large_pieces_problem(
                    seed, **grid_size
                )
                out = threaded.assimilate(decomp, states, net, y, rng=seed)
                ref = serial.assimilate(decomp, states, net, y, rng=seed)
                assert np.array_equal(out, ref), f"run {seed} diverged"
    finally:
        sys.setswitchinterval(interval)


class TestThreadLoop:
    def test_submits_as_prepared(self, monkeypatch):
        """Piece k goes to the pool before piece k+1's geometry is
        resolved — the prepare/compute overlap — one task per *observed*
        piece: observation-free pieces are one bulk fill, neither
        prepared nor submitted."""
        prepared_at_submit = []
        real_prepare = AnalysisPlan.prepare
        real_submit = ThreadPoolExecutor.submit

        def counting_prepare(self, index):
            prepared_so_far.append(index)
            return real_prepare(self, index)

        def recording_submit(self, fn, *args, **kwargs):
            prepared_at_submit.append(len(prepared_so_far))
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(AnalysisPlan, "prepare", counting_prepare)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
        for obs_columns, observed in [
            (None, list(range(8))),  # every piece observed
            # columns 9-10 lie in sub-domain column 2 alone (one-cell
            # halos): plan indices 2 and 6
            ([9, 10], [2, 6]),
        ]:
            plan = enkf_plan(n_sdx=4, n_sdy=2, obs_columns=obs_columns)
            prepared_so_far = []
            prepared_at_submit.clear()
            with AnalysisExecutor(strategy="thread", workers=2) as ex:
                ex.run(plan)
            assert prepared_at_submit == list(range(1, len(observed) + 1))
            assert prepared_so_far == list(plan.observed) == observed

    def test_piece_error_surfaces_as_itself_and_executor_stays_usable(
        self, monkeypatch
    ):
        """A NaN background at an observed point fails that piece's
        kernel: ``run()`` raises the serial loop's exception, tasks that
        had not started never run, and the next clean run on the same
        executor is bit-identical to serial."""
        import repro.parallel.executor as executor_mod

        decomp, states, net, y = large_pieces_problem(seed=3)
        bad = states.copy()
        first = next(iter(decomp))
        seen = np.isin(net.flat_locations, first.interior_flat)
        assert seen.any(), "fixture must observe the first piece's interior"
        bad[net.flat_locations[seen][0]] = np.nan

        def run(strategy, background):
            with AnalysisExecutor(strategy=strategy, workers=2) as ex:
                return DistributedEnKF(
                    radius_km=60.0, ridge=1e-2, executor=ex
                ).assimilate(decomp, background, net, y, rng=5)

        with pytest.raises(ValueError) as serial_error:
            run("serial", bad)

        started = []
        release = threading.Event()
        real_compute = executor_mod.compute_piece

        def gated_compute(kind, piece, *args):
            # Hold every piece until the caller has submitted them all,
            # so "not yet started" is a fixed set: with two pool threads,
            # pieces 0 and 1 run and the other fourteen wait in the queue.
            started.append((piece.i, piece.j))
            assert release.wait(timeout=30.0)
            return real_compute(kind, piece, *args)

        real_wait = executor_mod.wait

        def releasing_wait(futures, **kwargs):
            release.set()
            return real_wait(futures, **kwargs)

        monkeypatch.setattr(executor_mod, "compute_piece", gated_compute)
        monkeypatch.setattr(executor_mod, "wait", releasing_wait)
        ex = AnalysisExecutor(strategy="thread", workers=2)
        filt = DistributedEnKF(radius_km=60.0, ridge=1e-2, executor=ex)
        with pytest.raises(ValueError) as thread_error:
            filt.assimilate(decomp, bad, net, y, rng=5)
        assert type(thread_error.value) is type(serial_error.value)
        assert str(thread_error.value) == str(serial_error.value)
        # Piece 0 failed; whatever was queued behind the two running
        # pieces was cancelled, not computed.
        assert (first.i, first.j) in started
        assert len(started) < decomp.n_subdomains
        monkeypatch.undo()

        out = filt.assimilate(decomp, states, net, y, rng=5)
        assert np.array_equal(out, run("serial", states))

        threads = list(ex._pool._threads)
        ex.close()
        ex.close()  # idempotent
        assert threads and not any(t.is_alive() for t in threads)  # joined
        with pytest.raises(ValueError, match="closed"):
            ex.run(enkf_plan())

    def test_hammer_fresh_network_every_run_matches_serial(self):
        """The race check for concurrent pieces through the shared
        structures (one stencil, many threads) and the banded closing:
        8 runs x 16 pieces of 240 points."""
        hammer_thread_loop(8, n_x=64, n_y=32)

    @pytest.mark.hammer
    def test_hammer_50_runs_at_benchmark_size(self):
        """The same at ``large_pieces_moving``'s size, 50 runs x 16 pieces
        of 880 points; deselected in tier-1, run by CI's parallel-smoke
        (``-m hammer``)."""
        hammer_thread_loop(50)


# ---------------------------------------------------------------------------
# Telemetry flow
# ---------------------------------------------------------------------------
class TestParallelTelemetry:
    def _run(self, strategy, cycles=1):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor(strategy=strategy, workers=2) as ex:
                filt = DistributedEnKF(radius_km=2.0, executor=ex)
                for seed in range(cycles):
                    filt.assimilate(decomp, states, net, y, rng=seed)
        return tracer, metrics, decomp

    def test_run_and_prepare_spans_recorded(self):
        """One ``parallel.prepare`` and one ``parallel.local_analysis``
        per *observed* piece — restated on purpose: an observation-free
        piece is filled in bulk and never prepared (before the split the
        count was ``decomp.n_subdomains``; this network observes every
        piece, so the number is the same and ``parallel.pieces`` still
        counts them all)."""
        tracer, metrics, decomp = self._run("serial")
        names = [s.name for s in tracer.spans]
        assert names.count("parallel.run") == 1
        run_span = next(s for s in tracer.spans if s.name == "parallel.run")
        assert run_span.attrs["strategy"] == "serial"
        n_observed = run_span.attrs["n_observed"]
        assert n_observed == run_span.attrs["n_pieces"] == decomp.n_subdomains
        assert names.count("parallel.prepare") == n_observed
        assert names.count("parallel.local_analysis") == n_observed
        snap = metrics.snapshot()
        assert snap["counters"]["parallel.pieces"] == decomp.n_subdomains
        assert snap["counters"]["parallel.unobserved_pieces"] == 0
        assert snap["counters"]["geometry.cache_misses"] == n_observed

    def test_worker_spans_flow_to_parent_tracer(self):
        tracer, metrics, decomp = self._run("thread")
        worker_spans = [
            s for s in tracer.spans
            if s.name == "parallel.local_analysis"
            and s.track.startswith("senkf-analysis")
        ]
        assert len(worker_spans) == decomp.n_subdomains
        assert sorted(s.attrs["piece"] for s in worker_spans) == list(
            range(decomp.n_subdomains)
        )
        run_span = next(s for s in tracer.spans if s.name == "parallel.run")
        for span in worker_spans:
            assert run_span.start <= span.start <= span.end <= run_span.end

    def test_thread_scoped_telemetry_crosses_into_pool_threads(self, tmp_path):
        """A campaign driven under ``use_thread_tracer`` (what
        ``CampaignRunner._drive`` and the service's worker threads do)
        with ``strategy="thread"``: every observed piece's
        ``parallel.local_analysis`` span lands on a pool-thread track of
        *that* tracer, and the process-global one sees nothing."""
        from repro.checkpoint import CampaignRunner
        from repro.models import AdvectionDiffusionModel, TwinExperiment

        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        filt = PEnKF(radius_km=2.0, inflation=1.05, ridge=1e-2,
                     workers=2, strategy="thread")
        twin = TwinExperiment(
            AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2),
            net,
            lambda s, obs, rng: filt.assimilate(decomp, s, net, obs, rng=rng),
            steps_per_cycle=2, master_seed=3,
        )
        scoped = Tracer(metrics=MetricsRegistry())
        global_tracer = Tracer(metrics=MetricsRegistry())
        n_cycles = 2
        try:
            with use_tracer(global_tracer), use_metrics(global_tracer.metrics), \
                    use_thread_metrics(scoped.metrics):
                CampaignRunner(twin, tmp_path, tracer=scoped).run(
                    truth, states, n_cycles, track_free_run=False
                )
        finally:
            filt.close()
        runs = [s for s in scoped.spans if s.name == "parallel.run"]
        assert [s.attrs["strategy"] for s in runs] == ["thread"] * n_cycles
        n_observed = sum(s.attrs["n_observed"] for s in runs)
        analyses = [
            s for s in scoped.spans if s.name == "parallel.local_analysis"
        ]
        assert len(analyses) == n_observed == n_cycles * decomp.n_subdomains
        assert all(s.track.startswith("senkf-analysis") for s in analyses)
        assert not [s for s in global_tracer.spans if s.category == "parallel"]
        assert not global_tracer.metrics.snapshot()["counters"]

    def test_worker_spans_survive_chrome_round_trip(self, tmp_path):
        """A real thread-pool capture — caller spans on "main", piece
        spans on ``senkf-analysis_<k>`` tracks — must re-import from its
        Chrome export with track assignment and nesting intact."""
        from repro.telemetry import spans_from_chrome, write_chrome_trace

        tracer, metrics, decomp = self._run("thread")
        path = write_chrome_trace(tmp_path / "trace.json", tracer=tracer)
        restored = {s.span_id: s for s in spans_from_chrome(path)}
        original = {s.span_id: s for s in tracer.spans}
        assert set(restored) == set(original)
        worker_tracks = set()
        for span_id, span in restored.items():
            ref = original[span_id]
            assert span.track == ref.track
            assert span.parent_id == ref.parent_id
            if span.track.startswith("senkf-analysis"):
                worker_tracks.add(span.track)
        assert worker_tracks  # the pool really fanned out
        restored_workers = [
            s for s in restored.values()
            if s.name == "parallel.local_analysis"
            and s.track.startswith("senkf-analysis")
        ]
        assert len(restored_workers) == decomp.n_subdomains

    def test_cycling_prepare_spans_turn_cached(self):
        """The telemetry view of the geometry cache: cycle 1 prepares are
        cache misses, every later cycle's are hits.

        Counted over *observed* pieces on purpose (``n`` was
        ``decomp.n_subdomains`` before the split): only they are
        prepared, so only they reach the cache."""
        tracer, metrics, decomp = self._run("serial", cycles=3)
        prepares = [s for s in tracer.spans if s.name == "parallel.prepare"]
        runs = [s for s in tracer.spans if s.name == "parallel.run"]
        n = runs[0].attrs["n_observed"]
        assert [s.attrs["n_observed"] for s in runs] == [n] * 3
        assert len(prepares) == 3 * n
        ordered = sorted(prepares, key=lambda s: s.start)
        assert all(not s.attrs["cached"] for s in ordered[:n])
        assert all(s.attrs["cached"] for s in ordered[n:])
        snap = metrics.snapshot()
        assert snap["counters"]["geometry.cache_hits"] == 2 * n
