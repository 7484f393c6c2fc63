"""Tests for the parallel analysis engine (:mod:`repro.parallel`).

The load-bearing guarantee is *bit-identity across widths*: the one
engine — the batched kernel in runs, fanned out over the executor's
pool — must produce byte-for-byte the same analysis at every worker
count, for every filter (DistributedEnKF, layered S-EnKF, degraded
N − k), including the degenerate configurations (one worker, more
workers than runs, sub-domains with no observations, nothing observed
at all).  On top sit the geometry cache's reuse semantics (a cycling
campaign must never re-derive cycle-invariant geometry), the fan-out's
failure semantics, and the telemetry flow from pool threads into the
submitting thread's tracer.

Where a parametrisation still carries the ids ``serial`` / ``thread``,
they name where the runs execute: on the calling thread (one worker) or
on a pool of two.
"""

import gc
import os
import pickle
import sys
import threading
import warnings
import weakref

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
    run_vectorized,
)
from repro.parallel import executor as executor_module
from repro.parallel import vectorized
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_thread_metrics,
    use_tracer,
)

#: where the runs execute, by the historical ids: ``serial`` on the
#: calling thread (one worker), ``thread`` on a pool of two
WIDTHS = {"serial": 1, "thread": 2}


@pytest.fixture
def one_piece_runs(monkeypatch):
    """Every run one piece, so that any plan of two or more observed
    pieces fans out over the pool."""
    monkeypatch.setattr(vectorized, "_RUN_BYTES", 1)


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
        geo = GeometryCache().get(net, sd, radius_km=2.0)[0]
        positions, h_local = net.restrict_to_box(
            sd.exp_x_indices, sd.exp_y_indices
        )
        assert np.array_equal(geo.obs_positions, positions)
        assert (geo.h_local != h_local).nnz == 0
        assert np.array_equal(geo.interior_positions,
                              sd.interior_positions_in_expansion)
        assert geo.stencil.predecessors is not None

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
            AnalysisExecutor(workers=0)
        with pytest.raises(TypeError):
            AnalysisExecutor(strategy="serial")  # one engine, no strategy
        # Filters keep ``auto`` (workers wide) and ``serial`` (one worker)
        # and refuse the deleted strategy names, with no alias.
        for name in ("thread", "vectorized", "process", "gpu"):
            with pytest.raises(ValueError, match="unknown strategy"):
                DistributedEnKF(radius_km=2.0, strategy=name)
        with pytest.raises(ValueError, match="one worker"):
            DistributedEnKF(radius_km=2.0, strategy="serial", workers=2)
        with AnalysisExecutor(workers=2) as ex:
            assert ex.resolve(enkf_plan()) == "vectorized"

    @pytest.mark.parametrize("entry", ["serial", "thread", "vectorized"])
    def test_deleted_kind_is_rejected_not_run_as_enkf(self, entry):
        """A plan of the deleted ensemble-transform kind, as its filter
        built it (raw ``y``, an ``inflation`` parameter), raises before
        anything is written or cached — entered through a one-worker
        executor, a two-worker one, or :func:`run_vectorized` directly —
        and a clean EnKF plan then runs exactly as on a fresh entry."""

        def enter():
            if entry == "vectorized":
                return None, run_vectorized
            ex = AnalysisExecutor(workers=WIDTHS[entry])
            return ex, ex.run

        stale = enkf_plan(n_sdx=4, n_sdy=2)
        stale.kind = "etkf"
        stale.obs = stale.obs[:, 0]
        stale.params = {"inflation": 1.03}
        stale.out[:] = np.nan
        ex, run = enter()
        with pytest.raises(
            ValueError, match=f"unknown analysis kind {stale.kind!r}"
        ):
            run(stale)
        assert np.isnan(stale.out).all() and len(stale.cache) == 0
        clean = enkf_plan(n_sdx=4, n_sdy=2)
        run(clean)
        ref = enkf_plan(n_sdx=4, n_sdy=2)
        fresh, fresh_run = enter()
        fresh_run(ref)
        for executor in (ex, fresh):
            if executor is not None:
                executor.close()
        assert np.array_equal(clean.out, ref.out)

    def test_closed_executor_refuses_work(self):
        ex = AnalysisExecutor(workers=1)
        ex.close()
        with pytest.raises(ValueError):
            ex.run(enkf_plan())

    def test_auto_on_the_io_shape_starts_no_pool(self):
        """One run starts no pool: 200 pieces of 34 x 34 points with one
        observed cluster (the ``io_*`` workloads' plan) make one bucket
        of one run, which a two-worker filter runs on the calling
        thread."""
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
        """The width is the pool width capped by the task (run) count."""
        ex = AnalysisExecutor(workers=16)
        assert ex.effective_workers(3) == 3
        assert ex.effective_workers(0) == 1
        ex.close()

    def test_filter_rejects_executor_and_workers(self):
        with pytest.raises(ValueError):
            DistributedEnKF(radius_km=2.0, workers=2,
                            executor=AnalysisExecutor(workers=1))

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
    def fresh_process(self, monkeypatch, one_piece_runs):
        monkeypatch.setattr(executor_module, "_oversubscription_warned", False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for name in executor_module._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)

    @staticmethod
    def runtime_warnings(workers=2, entry="thread"):
        """Two executors, two fanned-out runs each, entered through
        :meth:`AnalysisExecutor.run` (``thread``) or through
        :func:`run_vectorized` handed the executor's fan-out
        (``vectorized``)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                with AnalysisExecutor(workers=workers) as ex:
                    for _ in range(2):
                        if entry == "thread":
                            ex.run(enkf_plan())
                        else:
                            run_vectorized(enkf_plan(), ex._fan_out)
        return [w for w in caught if w.category is RuntimeWarning]

    def test_unpinned_blas_warns_once(self):
        (warning,) = self.runtime_warnings()
        assert "OPENBLAS_NUM_THREADS=1" in str(warning.message)

    @pytest.mark.parametrize("entry", ["thread", "vectorized"])
    def test_warning_points_at_the_caller_of_run(self, entry):
        """The executor's ``run`` and a direct :func:`run_vectorized`
        reach the pool through frames of different depth; both name the
        line of this file that entered the engine."""
        (warning,) = self.runtime_warnings(entry=entry)
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
# Bit-identity across widths and filters
# ---------------------------------------------------------------------------
def _enkf_pair(executor):
    serial = DistributedEnKF(radius_km=2.0, inflation=1.05)
    parallel = DistributedEnKF(radius_km=2.0, inflation=1.05,
                               executor=executor)
    return serial, parallel


def dense_problem():
    """32 sub-domains of 4 x 4 points on a 32 x 16 grid, two-cell halos,
    every one observed: 32 pieces of up to 64 expansion points (64 layers
    of S-EnKF), in a handful of structural buckets."""
    grid, truth, states, net, y = problem(n_x=32, n_y=16, m=160, seed=3)
    decomp = Decomposition(grid, n_sdx=8, n_sdy=4, xi=2, eta=2)
    return decomp, states, net, y


def _width_cases():
    """``(label, analyse)``: each ``analyse(executor)`` analyses one fixed
    problem through the given executor and returns the analysis."""
    decomp, states, net, y = dense_problem()
    enkf = dict(radius_km=2.0, inflation=1.05, ridge=1e-3)

    def unobserved(ex):
        # one observation at (1, 1): sub-domain columns 2-6 (grid columns
        # 8-27, halos 6-29) are clear of it, and of the periodic seam
        lone = ObservationNetwork(
            net.grid, ix=np.array([1]), iy=np.array([1]), obs_error_std=0.3
        )
        plan = AnalysisPlan(
            kind=KIND_ENKF, pieces=[sd for sd in decomp if 2 <= sd.i <= 6],
            states=states, obs=np.ones((1, states.shape[1])),
            out=np.full_like(states, np.nan), network=lone,
            params={"radius_km": 2.0, "ridge": 1e-3},
        )
        assert plan.observed == ()
        ex.run(plan)
        return plan.out

    yield "distributed", lambda ex: DistributedEnKF(
        executor=ex, **enkf
    ).assimilate(decomp, states, net, y, rng=5)
    yield "senkf-L2", lambda ex: SEnKF(
        n_layers=2, executor=ex, **enkf
    ).assimilate(decomp, states, net, y, rng=5)
    yield "degraded", lambda ex: DistributedEnKF(
        executor=ex, **enkf
    ).assimilate_degraded(decomp, states, net, y, dropped=(1, 4), rng=5)[0]
    yield "unobserved", unobserved


class TestBitIdentity:
    @pytest.mark.parametrize("where", sorted(WIDTHS))
    def test_distributed_enkf(self, where):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
        with AnalysisExecutor(workers=WIDTHS[where]) as ex:
            serial, parallel = _enkf_pair(ex)
            ref = serial.assimilate(decomp, states, net, y, rng=7)
            out = parallel.assimilate(decomp, states, net, y, rng=7)
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize("where", sorted(WIDTHS))
    def test_senkf_layered(self, where):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        serial = SEnKF(radius_km=2.0, n_layers=2, inflation=1.02)
        ref = serial.assimilate(decomp, states, net, y, rng=5)
        with AnalysisExecutor(workers=WIDTHS[where]) as ex:
            parallel = SEnKF(radius_km=2.0, n_layers=2, inflation=1.02,
                             executor=ex)
            out = parallel.assimilate(decomp, states, net, y, rng=5)
        assert np.array_equal(ref, out)

    @pytest.mark.parametrize(
        "label,analyse", list(_width_cases()),
        ids=lambda c: c if isinstance(c, str) else "",
    )
    def test_bit_identical_at_every_width(self, monkeypatch, label, analyse):
        """w = 1, 2 and 3 give the same bits, on buckets split into three
        or more runs.  Runs are sized from a fixed byte budget, so their
        boundaries — and with them every reduction order — do not move
        with the pool width."""
        runs_per_bucket = []
        real_compute = vectorized._compute_run

        def spy_compute(plan, bucket, lo, hi, span_attrs):
            runs_per_bucket.append(span_attrs["runs"])
            real_compute(plan, bucket, lo, hi, span_attrs)

        monkeypatch.setattr(vectorized, "_compute_run", spy_compute)
        # three of the widest pieces (64 points x 6 predecessors x 12
        # members x 8 bytes): buckets of four or more split into runs
        monkeypatch.setattr(vectorized, "_RUN_BYTES", 3 * 64 * 6 * 12 * 8)
        outs = {}
        for workers in (1, 2, 3):
            runs_per_bucket.clear()
            with AnalysisExecutor(workers=workers) as ex:
                outs[workers] = analyse(ex)
        if label == "unobserved":
            assert runs_per_bucket == []
        else:
            assert max(runs_per_bucket) >= 3
        assert np.array_equal(outs[1], outs[2])
        assert np.array_equal(outs[1], outs[3])

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
        with AnalysisExecutor(workers=16) as ex:
            out = DistributedEnKF(radius_km=2.0, executor=ex).assimilate(
                decomp, states, net, y, rng=2
            )
        assert np.array_equal(ref, out)

    def test_empty_observation_subdomains_under_thread_pool(
        self, one_piece_runs
    ):
        """Sub-domains whose expansion sees no observation return the
        (inflated) background — also when the observed ones fan out."""
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
        with AnalysisExecutor(workers=2) as ex:
            out = DistributedEnKF(radius_km=2.0, inflation=1.1,
                                  executor=ex).assimilate(
                decomp, states, net, y, rng=6
            )
            assert ex._pool is not None  # the observed pieces fanned out
        assert np.array_equal(ref, out)

    def test_repeated_calls_reuse_pool_and_stay_identical(
        self, one_piece_runs
    ):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        serial = DistributedEnKF(radius_km=2.0)
        with AnalysisExecutor(workers=2) as ex:
            filt = DistributedEnKF(radius_km=2.0, executor=ex)
            pools = set()
            for seed in (1, 2, 3):
                ref = serial.assimilate(decomp, states, net, y, rng=seed)
                out = filt.assimilate(decomp, states, net, y, rng=seed)
                pools.add(id(ex._pool))
                assert np.array_equal(ref, out)
            assert len(pools) == 1 and ex._pool is not None

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
# The fan-out over the pool
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


def hammer_engine(n_runs, **grid_size):
    """The engine on four pool threads (oversubscribed on purpose) with a
    short switch interval and a fresh network every run; each run must
    be ``array_equal`` to the same engine at one worker."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with AnalysisExecutor(workers=4) as ex:
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
            assert ex._pool is not None  # the runs really fanned out
    finally:
        sys.setswitchinterval(interval)


class TestThreadLoop:
    def test_piece_error_surfaces_as_itself_and_executor_stays_usable(
        self, monkeypatch, one_piece_runs
    ):
        """A NaN background at an observed point fails that piece's run:
        ``run()`` raises the one-worker loop's exception, runs that had
        not started never run, and the next clean run on the same
        executor is bit-identical to one worker."""
        decomp, states, net, y = large_pieces_problem(seed=3)
        bad = states.copy()
        first = next(iter(decomp))
        seen = np.isin(net.flat_locations, first.interior_flat)
        assert seen.any(), "fixture must observe the first piece's interior"
        bad[net.flat_locations[seen][0]] = np.nan

        def run(workers, background):
            with AnalysisExecutor(workers=workers) as ex:
                return DistributedEnKF(
                    radius_km=60.0, ridge=1e-2, executor=ex
                ).assimilate(decomp, background, net, y, rng=5)

        with pytest.raises(ValueError) as serial_error:
            run(1, bad)

        started = []
        release = threading.Event()
        real_compute = vectorized._compute_run

        def gated_compute(plan, bucket, lo, hi, span_attrs):
            # Hold every run until the caller has submitted them all, so
            # "not yet started" is a fixed set: with two pool threads,
            # two runs start and the other fourteen wait in the queue.
            started.append(bucket.plan_indices[lo])
            assert release.wait(timeout=30.0)
            real_compute(plan, bucket, lo, hi, span_attrs)

        real_wait = executor_module.wait

        def releasing_wait(futures, **kwargs):
            release.set()
            return real_wait(futures, **kwargs)

        monkeypatch.setattr(vectorized, "_compute_run", gated_compute)
        monkeypatch.setattr(executor_module, "wait", releasing_wait)
        ex = AnalysisExecutor(workers=2)
        filt = DistributedEnKF(radius_km=60.0, ridge=1e-2, executor=ex)
        with pytest.raises(ValueError) as thread_error:
            filt.assimilate(decomp, bad, net, y, rng=5)
        assert type(thread_error.value) is type(serial_error.value)
        assert str(thread_error.value) == str(serial_error.value)
        # The failing piece ran; whatever was queued behind the two
        # running runs was cancelled, not computed.
        assert 0 in started
        assert len(started) < decomp.n_subdomains
        monkeypatch.setattr(vectorized, "_compute_run", real_compute)
        monkeypatch.setattr(executor_module, "wait", real_wait)

        out = filt.assimilate(decomp, states, net, y, rng=5)
        assert np.array_equal(out, run(1, states))

        threads = list(ex._pool._threads)
        ex.close()
        ex.close()  # idempotent
        assert threads and not any(t.is_alive() for t in threads)  # joined
        with pytest.raises(ValueError, match="closed"):
            ex.run(enkf_plan())

    def test_hammer_fresh_network_every_run_matches_serial(self):
        """The race check for concurrent runs through the shared
        structures (one stencil, many threads) and the banded closing:
        8 runs x 16 pieces of 240 points, four workers against one."""
        hammer_engine(8, n_x=64, n_y=32)

    @pytest.mark.hammer
    def test_hammer_50_runs_at_benchmark_size(self):
        """The same at ``large_pieces_moving``'s size, 50 runs x 16 pieces
        of 880 points; deselected in tier-1, run by CI's parallel-smoke
        (``-m hammer``)."""
        hammer_engine(50)


# ---------------------------------------------------------------------------
# Telemetry flow
# ---------------------------------------------------------------------------
def _run_pieces(spans) -> list[int]:
    """Plan indices of the pieces the ``vectorized.bucket`` spans cover."""
    return sorted(
        index for s in spans
        for index in range(s.attrs["lo"], s.attrs["hi"])
    )


class TestParallelTelemetry:
    def _run(self, workers, cycles=1):
        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor(workers=workers) as ex:
                filt = DistributedEnKF(radius_km=2.0, executor=ex)
                for seed in range(cycles):
                    filt.assimilate(decomp, states, net, y, rng=seed)
        return tracer, metrics, decomp

    def test_run_and_prepare_spans_recorded(self):
        """One ``parallel.prepare`` per *observed* piece and one
        ``vectorized.bucket`` per run; ``parallel.run`` carries no
        strategy (there is one engine) and no per-piece
        ``parallel.local_analysis`` span is emitted."""
        tracer, metrics, decomp = self._run(1)
        names = [s.name for s in tracer.spans]
        assert names.count("parallel.run") == 1
        run_span = next(s for s in tracer.spans if s.name == "parallel.run")
        assert "strategy" not in run_span.attrs
        assert run_span.attrs["workers"] == 1
        n_observed = run_span.attrs["n_observed"]
        assert n_observed == run_span.attrs["n_pieces"] == decomp.n_subdomains
        assert names.count("parallel.prepare") == n_observed
        assert names.count("parallel.local_analysis") == 0
        buckets = [s for s in tracer.spans if s.name == "vectorized.bucket"]
        assert buckets and sum(
            s.attrs["hi"] - s.attrs["lo"] for s in buckets
        ) == n_observed
        snap = metrics.snapshot()
        assert snap["counters"]["parallel.pieces"] == decomp.n_subdomains
        assert snap["counters"]["parallel.unobserved_pieces"] == 0
        assert snap["counters"]["geometry.cache_misses"] > n_observed

    def test_worker_spans_flow_to_parent_tracer(self, one_piece_runs):
        tracer, metrics, decomp = self._run(2)
        worker_spans = [
            s for s in tracer.spans
            if s.name == "vectorized.bucket"
            and s.track.startswith("senkf-analysis")
        ]
        assert len(worker_spans) == decomp.n_subdomains
        run_span = next(s for s in tracer.spans if s.name == "parallel.run")
        assert run_span.attrs["workers"] == 2
        for span in worker_spans:
            assert run_span.start <= span.start <= span.end <= run_span.end

    def test_thread_scoped_telemetry_crosses_into_pool_threads(
        self, tmp_path, one_piece_runs
    ):
        """A campaign driven under ``use_thread_tracer`` (what
        ``CampaignRunner._drive`` does) with two workers: every run's
        ``vectorized.bucket`` span lands on a pool-thread track of *that*
        tracer, and the process-global one sees nothing."""
        from repro.checkpoint import CampaignRunner
        from repro.models import AdvectionDiffusionModel, TwinExperiment

        grid, truth, states, net, y = problem()
        decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=1, eta=1)
        filt = PEnKF(radius_km=2.0, inflation=1.05, ridge=1e-2, workers=2)
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
        assert [s.attrs["workers"] for s in runs] == [2] * n_cycles
        n_observed = sum(s.attrs["n_observed"] for s in runs)
        analyses = [
            s for s in scoped.spans if s.name == "vectorized.bucket"
        ]
        assert len(analyses) == n_observed == n_cycles * decomp.n_subdomains
        assert all(s.track.startswith("senkf-analysis") for s in analyses)
        assert not [s for s in global_tracer.spans if s.category == "parallel"]
        assert not global_tracer.metrics.snapshot()["counters"]

    def test_worker_spans_survive_chrome_round_trip(
        self, tmp_path, one_piece_runs
    ):
        """A real thread-pool capture — caller spans on "main", run spans
        on ``senkf-analysis_<k>`` tracks — must re-import from its
        Chrome export with track assignment and nesting intact."""
        from repro.telemetry import spans_from_chrome, write_chrome_trace

        tracer, metrics, decomp = self._run(2)
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
            if s.name == "vectorized.bucket"
            and s.track.startswith("senkf-analysis")
        ]
        assert len(restored_workers) == decomp.n_subdomains

    def test_cycling_prepare_spans_turn_cached(self):
        """The telemetry view of the geometry cache: cycle 1 prepares are
        cache misses, every later cycle's are hits.

        Counted over *observed* pieces on purpose: only they are
        prepared, so only they reach the cache."""
        tracer, metrics, decomp = self._run(1, cycles=3)
        prepares = [s for s in tracer.spans if s.name == "parallel.prepare"]
        runs = [s for s in tracer.spans if s.name == "parallel.run"]
        n = runs[0].attrs["n_observed"]
        assert [s.attrs["n_observed"] for s in runs] == [n] * 3
        assert len(prepares) == 3 * n
        ordered = sorted(prepares, key=lambda s: s.start)
        assert all(not s.attrs["cached"] for s in ordered[:n])
        assert all(s.attrs["cached"] for s in ordered[n:])
        snap = metrics.snapshot()
        # piece lookups and bucket lookups both hit from cycle 2 on
        assert snap["counters"]["geometry.cache_hits"] >= 2 * n
