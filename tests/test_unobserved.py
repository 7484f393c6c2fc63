"""Observation-free pieces: one bulk fill, and work sized by the rest.

A piece whose expansion holds no observation has its background
(already inflated by the filter) as its analysis.  The engine fills all
such pieces in one pass (:meth:`AnalysisPlan.fill_unobserved`) and
prepares, batches and counts only the observed ones, by their plan
indices.  The contract pinned here: whatever the observation placement,
every filter at every width equals an oracle that loops
:func:`~repro.parallel.worker.compute_piece` over **all** pieces, to the
batched kernel's tolerance tier, and the widths equal each other bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Decomposition,
    Grid,
    InterpolatingObservationNetwork,
    ObservationNetwork,
)
from repro.core.inflation import inflate
from repro.core.observations import perturb_observations
from repro.filters import SEnKF
from repro.filters.distributed import DistributedEnKF
from repro.parallel import (
    KIND_ENKF,
    AnalysisExecutor,
    AnalysisPlan,
    GeometryCache,
    compute_piece,
    run_vectorized,
)
from repro.parallel import vectorized
from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.util.seeding import spawn_rng

#: the batched kernel's equivalence contract (tests/test_vectorized.py)
RTOL, ATOL = 1e-10, 1e-11

#: the engine's width under each historical strategy id: ``auto`` is the
#: executor's default (the CPU count), ``serial`` one worker, ``thread``
#: two and ``vectorized`` three
WIDTHS = {"auto": None, "serial": 1, "thread": 2, "vectorized": 3}

GRID = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
#: 4 x 2 sub-domains of 4 x 4 points, one-cell halos: the expansion of
#: sub-domain ``i`` reaches one column into sub-domains ``i - 1``, ``i + 1``
DECOMP = Decomposition(GRID, n_sdx=4, n_sdy=2, xi=1, eta=1)
N_MEMBERS = 10
STATES = np.random.default_rng(0).standard_normal((GRID.n, N_MEMBERS))
ENKF = dict(radius_km=2.0, inflation=1.05, ridge=1e-2)

FILTERS = {
    "enkf": lambda ex: DistributedEnKF(executor=ex, **ENKF),
    "senkf": lambda ex: SEnKF(n_layers=2, executor=ex, **ENKF),
}


def network(ix, iy):
    return ObservationNetwork(
        GRID, ix=np.asarray(ix), iy=np.asarray(iy), obs_error_std=0.4
    )


def box_observed(net, piece):
    """The definition the cheap answer must agree with."""
    return net.restrict_to_box(
        piece.exp_x_indices, piece.exp_y_indices
    )[0].size > 0


def oracle(name, net, y, seed):
    """The analysis by ``compute_piece`` over every piece, no shortcut."""
    states = inflate(STATES, ENKF["inflation"])
    obs = perturb_observations(
        y, net.obs_error_std, N_MEMBERS, rng=spawn_rng(seed)
    )
    params = {"radius_km": ENKF["radius_km"], "ridge": ENKF["ridge"]}
    out = np.full_like(states, np.nan)
    cache = GeometryCache()
    for piece in FILTERS[name](None)._plan_pieces(DECOMP):
        geometry, _ = cache.get(net, piece, ENKF["radius_km"])
        out[geometry.interior_flat] = compute_piece(
            KIND_ENKF, piece, states[geometry.expansion_flat], obs, geometry,
            params,
        )
    return out


@st.composite
def placements(draw):
    """Observed grid points ``(ix, iy)``: one cluster, observations seen
    by a neighbour only through its halo, every piece observed, or a
    scattered handful."""
    mode = draw(st.sampled_from(["cluster", "halo", "everywhere", "scattered"]))
    if mode == "cluster":
        x0 = draw(st.integers(0, GRID.n_x - 2))
        y0 = draw(st.integers(0, GRID.n_y - 2))
        points = {(x0 + dx, y0 + dy) for dx in (0, 1) for dy in (0, 1)}
    elif mode == "halo":
        # the first column of sub-domain i: interior to i, halo to i - 1
        x0 = 4 * draw(st.integers(0, DECOMP.n_sdx - 1))
        rows = draw(st.sets(st.integers(0, GRID.n_y - 1), min_size=1,
                            max_size=3))
        points = {(x0, iy) for iy in rows}
    elif mode == "everywhere":
        # one point in every 4 x 2 block: every S-EnKF layer sees one
        points = {
            (ix, iy) for ix in range(1, GRID.n_x, 4)
            for iy in range(0, GRID.n_y, 2)
        }
    else:
        flat = draw(st.sets(st.integers(0, GRID.n - 1), min_size=1,
                            max_size=12))
        points = {(k % GRID.n_x, k // GRID.n_x) for k in flat}
    ix, iy = zip(*sorted(points))
    return network(ix, iy)


@pytest.fixture(scope="module")
def executors():
    """One executor per width for the whole module: the hypothesis
    examples reuse the thread pools."""
    pool = {s: AnalysisExecutor(workers=w) for s, w in WIDTHS.items()}
    yield pool
    for ex in pool.values():
        ex.close()


def check_width(executors, strategy, out, run):
    """``out`` holds the contract against the oracle (checked by the
    caller) and equals the one-worker analysis bit for bit."""
    if strategy != "serial":
        assert np.array_equal(out, run(executors["serial"]))


class TestEveryPlacementEqualsTheAllPiecesOracle:
    @pytest.mark.parametrize("strategy", sorted(WIDTHS))
    @pytest.mark.parametrize("name", sorted(FILTERS))
    @settings(max_examples=25, deadline=None)
    @given(net=placements(), seed=st.integers(0, 2**16))
    def test_filter_under_strategy(self, executors, name, strategy, net, seed):
        y = np.random.default_rng(seed).standard_normal(net.m)
        expected = oracle(name, net, y, seed)

        def run(ex):
            return FILTERS[name](ex).assimilate(DECOMP, STATES, net, y, rng=seed)

        out = run(executors[strategy])
        assert np.allclose(out, expected, rtol=RTOL, atol=ATOL)
        check_width(executors, strategy, out, run)

    @settings(max_examples=60, deadline=None)
    @given(net=placements())
    def test_cheap_answer_is_the_box_restriction(self, net):
        """``GeometryCache.observed`` builds no operator and no stencil,
        yet agrees with ``restrict_to_box`` piece by piece."""
        layered = SEnKF(radius_km=2.0, n_layers=2)._plan_pieces(DECOMP)
        for pieces in (list(DECOMP), layered):
            cache = GeometryCache()
            answer = cache.observed(net, pieces)
            assert answer == tuple(
                i for i, p in enumerate(pieces) if box_observed(net, p)
            )
            assert cache.observed(net, pieces) is answer  # kept, not redone
            assert (cache.hits, cache.misses) == (0, 0)  # not a derivation

    def test_cheap_answer_takes_no_cache_entry(self):
        """A cache bounded at the entries one cycle builds (8 pieces and
        their buckets) holds every geometry: the second cycle hits on all
        of them, the answer evicting none."""
        net = network(range(1, GRID.n_x, 4), [3] * 4)  # row 3 + halo: all 8
        unbounded = GeometryCache()
        DistributedEnKF(geometry_cache=unbounded, **ENKF).assimilate(
            DECOMP, STATES, net, np.zeros(net.m), rng=1
        )
        n_entries = len(unbounded)
        assert n_entries > 8  # the pieces, and at least one bucket
        cache = GeometryCache(maxsize=n_entries)
        filt = DistributedEnKF(geometry_cache=cache, **ENKF)
        for _ in range(2):
            filt.assimilate(DECOMP, STATES, net, np.zeros(net.m), rng=1)
        assert (cache.hits, cache.misses) == (n_entries, n_entries)
        assert len(cache) == n_entries


class TestHaloOnlyObservation:
    def test_piece_seen_only_through_its_halo_is_observed(self):
        """Observations in column 4 lie in sub-domain 1's interior and in
        sub-domain 0's halo: both are observed, sub-domains 2 and 3 are
        not, and the bulk fill leaves them the inflated background."""
        net = network([4, 4], [1, 2])
        plan_pieces = list(DECOMP)
        observed = GeometryCache().observed(net, plan_pieces)
        assert observed == (0, 1)
        interior_hits = [
            i for i, p in enumerate(plan_pieces)
            if np.isin(net.flat_locations, p.interior_flat).any()
        ]
        assert interior_hits == [1]
        y = np.array([0.3, -0.2])
        out = DistributedEnKF(**ENKF).assimilate(DECOMP, STATES, net, y, rng=3)
        assert np.array_equal(out, oracle("enkf", net, y, 3))
        background = inflate(STATES, ENKF["inflation"])
        for i, piece in enumerate(plan_pieces):
            same = np.array_equal(
                out[piece.interior_flat], background[piece.interior_flat]
            )
            assert same == (i not in observed)


#: off-grid observations.  The first sits at (8.5, 1.5): its bilinear
#: stencil — columns 8-9, rows 1-2 — is whole inside sub-domain 2 and
#: straddles the edge of sub-domain 1's expansion (columns 3-8), which
#: holds the corner (8, 1) and still does not see it.  The second, at
#: (13.0, 5.5), sits on a grid column: a two-point stencil inside
#: sub-domain 7 and clear of 6's expansion (columns 7-12).
INTERP_NET = InterpolatingObservationNetwork(
    GRID, x=[8.5, 13.0], y=[1.5, 5.5], obs_error_std=0.4
)


class TestInterpolatingNetwork:
    """The cheap answer is the network's: an off-grid observation counts
    for a piece only when its whole stencil lies in the expansion box."""

    def test_straddling_observation_does_not_make_a_piece_observed(self):
        pieces = list(DECOMP)
        assert GeometryCache().observed(INTERP_NET, pieces) == (2, 7)
        assert 8 in pieces[1].exp_x_indices and 9 not in pieces[1].exp_x_indices
        for piece in pieces:
            box = (piece.exp_x_indices, piece.exp_y_indices)
            assert INTERP_NET.any_in_box(*box) == box_observed(INTERP_NET, piece)

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(st.floats(0, GRID.n_x, exclude_max=True), min_size=1,
                    max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_cheap_answer_is_the_stencil_restriction(self, xs, seed):
        ys = np.random.default_rng(seed).uniform(0, GRID.n_y - 1, len(xs))
        net = InterpolatingObservationNetwork(GRID, x=xs, y=ys)
        layered = SEnKF(radius_km=2.0, n_layers=2)._plan_pieces(DECOMP)
        for pieces in (list(DECOMP), layered):
            assert GeometryCache().observed(net, pieces) == tuple(
                i for i, p in enumerate(pieces) if box_observed(net, p)
            )

    @pytest.mark.parametrize("strategy", sorted(WIDTHS))
    @pytest.mark.parametrize("name", sorted(FILTERS))
    def test_filter_under_strategy(self, executors, name, strategy):
        y = np.array([0.4, -0.7])
        expected = oracle(name, INTERP_NET, y, 11)

        def run(ex):
            return FILTERS[name](ex).assimilate(
                DECOMP, STATES, INTERP_NET, y, rng=11
            )

        out = run(executors[strategy])
        assert np.allclose(out, expected, rtol=RTOL, atol=ATOL)
        check_width(executors, strategy, out, run)
        assert not np.array_equal(out, oracle(name, INTERP_NET, 0 * y, 11))


def right_half_plan():
    """The four right-hand sub-domains of a network observed only in
    column 1 (clear of the periodic seam): a plan with zero observations
    anywhere."""
    net = network([1, 1], [2, 5])
    pieces = [sd for sd in DECOMP if sd.i >= 2]
    assert not any(box_observed(net, p) for p in pieces)
    return AnalysisPlan(
        kind=KIND_ENKF, pieces=pieces, states=STATES,
        obs=np.zeros((net.m, N_MEMBERS)), out=np.full_like(STATES, np.nan),
        network=net, params={"radius_km": 2.0, "ridge": 1e-2},
    )


class TestNothingObservedAnywhere:
    @pytest.mark.parametrize("strategy", sorted(WIDTHS))
    def test_background_without_pool_or_kernel(self, monkeypatch, strategy):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel ran on a plan with no observation")

        monkeypatch.setattr(vectorized, "analysis_modified_cholesky", no_kernel)
        plan = right_half_plan()
        with AnalysisExecutor(workers=WIDTHS[strategy]) as ex:
            assert ex.run(plan) == len(plan.pieces)  # still counts them all
            assert ex._pool is None
        assert np.array_equal(plan.out, STATES)

    def test_run_vectorized_called_directly_fills_too(self):
        plan = right_half_plan()
        stats = run_vectorized(plan)
        assert stats["empty_pieces"] == len(plan.pieces)
        assert stats["batched_pieces"] == stats["n_buckets"] == 0
        assert np.array_equal(plan.out, STATES)


class TestFullyObservedPlanFillsNothing:
    def test_no_fill_when_every_piece_is_observed(self):
        """No unobserved piece: ``out`` is written by the pieces alone
        (a fill would be an extra ``n x N`` pass for nothing)."""
        net = network(range(1, GRID.n_x, 4), [3] * 4)  # row 3 + halo: all 8
        plan = AnalysisPlan(
            kind=KIND_ENKF, pieces=list(DECOMP), states=STATES,
            obs=np.zeros((net.m, N_MEMBERS)), out=np.full_like(STATES, np.nan),
            network=net, params={"radius_km": 2.0, "ridge": 1e-2},
        )
        assert plan.observed == tuple(range(8))
        plan.fill_unobserved()
        assert np.isnan(plan.out).all()


# ---------------------------------------------------------------------------
# Plan indices survive the split: spans, counters
# ---------------------------------------------------------------------------
#: observations inside the two right-hand columns of sub-domains, clear of
#: every halo of the left-hand ones (and of the periodic seam): the
#: observed plan indices are 2, 3, 6, 7
RIGHT_NET = network([9, 10, 13, 9, 10, 13], [1, 2, 1, 5, 6, 6])
RIGHT_OBSERVED = (2, 3, 6, 7)


class TestPlanIndicesSurviveTheSplit:
    def test_fixture_observes_the_right_half(self):
        assert GeometryCache().observed(RIGHT_NET, list(DECOMP)) == RIGHT_OBSERVED

    @pytest.mark.parametrize("strategy", ["serial", "thread"])
    def test_spans_and_counters_name_plan_indices(self, monkeypatch, strategy):
        """Prepares name plan indices, and so do the runs' buckets (one
        piece a run, so the pool fans out at two workers)."""
        monkeypatch.setattr(vectorized, "_RUN_BYTES", 1)
        y = np.linspace(-1.0, 1.0, RIGHT_NET.m)
        metrics = MetricsRegistry()
        tracer = Tracer(metrics=metrics)
        runs = []
        real_compute = vectorized._compute_run

        def spy_compute(plan, bucket, lo, hi, span_attrs):
            runs.extend(bucket.plan_indices[lo:hi])
            real_compute(plan, bucket, lo, hi, span_attrs)

        monkeypatch.setattr(vectorized, "_compute_run", spy_compute)
        with use_tracer(tracer), use_metrics(metrics):
            with AnalysisExecutor(workers=WIDTHS[strategy]) as ex:
                DistributedEnKF(executor=ex, **ENKF).assimilate(
                    DECOMP, STATES, RIGHT_NET, y, rng=5
                )
        run = next(s for s in tracer.spans if s.name == "parallel.run")
        assert run.attrs["n_pieces"] == 8
        assert run.attrs["n_observed"] == len(RIGHT_OBSERVED)
        assert run.attrs["workers"] == WIDTHS[strategy]
        pieces = sorted(
            s.attrs["piece"] for s in tracer.spans
            if s.name == "parallel.prepare"
        )
        assert pieces == list(RIGHT_OBSERVED)
        assert sorted(runs) == list(RIGHT_OBSERVED)
        counters = metrics.snapshot()["counters"]
        assert counters["parallel.pieces"] == 8
        assert counters["parallel.unobserved_pieces"] == 4
        # one lookup per observed piece, then one per bucket
        assert counters["geometry.cache_misses"] == len(RIGHT_OBSERVED) + (
            counters["vectorized.buckets"]
        )
