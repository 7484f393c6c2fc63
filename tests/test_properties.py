"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid
from repro.core.cholesky import modified_cholesky_inverse
from repro.io import FileLayout, contiguous_runs
from repro.sim import Environment, Resource, merge_intervals, union_total
from repro.sim.trace import intersect_total


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------
intervals_strategy = st.lists(
    st.tuples(
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
        st.floats(0, 100, allow_nan=False, allow_infinity=False),
    ).map(lambda ab: (min(ab), max(ab))),
    max_size=20,
)


class TestIntervalProperties:
    @given(intervals_strategy)
    def test_merge_produces_disjoint_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
        for s, e in merged:
            assert e > s

    @given(intervals_strategy)
    def test_union_never_exceeds_sum(self, intervals):
        assert union_total(intervals) <= sum(e - s for s, e in intervals) + 1e-9

    @given(intervals_strategy)
    def test_union_idempotent(self, intervals):
        merged = merge_intervals(intervals)
        assert merge_intervals(merged) == merged

    @given(intervals_strategy, intervals_strategy)
    def test_intersection_bounded_by_each_union(self, a, b):
        inter = intersect_total(a, b)
        assert inter <= union_total(a) + 1e-9
        assert inter <= union_total(b) + 1e-9
        assert inter >= 0

    @given(intervals_strategy, intervals_strategy)
    def test_intersection_symmetric(self, a, b):
        assert intersect_total(a, b) == pytest.approx(
            intersect_total(b, a), abs=1e-9
        )

    @given(intervals_strategy)
    def test_self_intersection_is_union(self, a):
        assert intersect_total(a, a) == pytest.approx(union_total(a), abs=1e-9)


# ---------------------------------------------------------------------------
# Contiguous runs / layouts
# ---------------------------------------------------------------------------
class TestRunProperties:
    @given(st.lists(st.integers(0, 500), max_size=60))
    def test_runs_cover_exactly_the_input_set(self, indices):
        runs = contiguous_runs(np.array(indices, dtype=int))
        covered = set()
        for start, length in runs:
            covered.update(range(start, start + length))
        assert covered == set(indices)

    @given(st.lists(st.integers(0, 500), max_size=60))
    def test_runs_are_disjoint_and_sorted(self, indices):
        runs = contiguous_runs(np.array(indices, dtype=int))
        for (s1, l1), (s2, _) in zip(runs, runs[1:]):
            assert s1 + l1 < s2  # gap, otherwise they'd be one run


@st.composite
def grid_and_rows(draw):
    n_x = draw(st.integers(2, 64))
    n_y = draw(st.integers(2, 64))
    iy0 = draw(st.integers(0, n_y - 1))
    iy1 = draw(st.integers(iy0 + 1, n_y))
    return Grid(n_x=n_x, n_y=n_y), iy0, iy1


class TestLayoutProperties:
    @given(grid_and_rows())
    def test_bar_is_always_one_extent_of_right_size(self, args):
        grid, iy0, iy1 = args
        layout = FileLayout(grid=grid, h_bytes=8)
        extents = layout.bar_extents(iy0, iy1)
        assert len(extents) == 1
        assert extents[0][1] == (iy1 - iy0) * grid.n_x

    @given(grid_and_rows(), st.data())
    def test_block_extents_cover_exactly_the_block(self, args, data):
        grid, iy0, iy1 = args
        x0 = data.draw(st.integers(0, grid.n_x - 1))
        width = data.draw(st.integers(1, grid.n_x))
        cols = np.mod(np.arange(x0, x0 + width), grid.n_x)
        layout = FileLayout(grid=grid, h_bytes=8)
        extents = layout.block_extents(cols, iy0, iy1)
        got = set(FileLayout.extent_indices(extents))
        want = {
            int(iy * grid.n_x + ix)
            for iy in range(iy0, iy1)
            for ix in set(int(c) for c in cols)
        }
        assert got == want


# ---------------------------------------------------------------------------
# Domain decomposition
# ---------------------------------------------------------------------------
@st.composite
def decompositions(draw):
    # Pick grid sizes with guaranteed divisors.
    sdx = draw(st.integers(1, 6))
    sdy = draw(st.integers(1, 6))
    bx = draw(st.integers(1, 8))
    by = draw(st.integers(1, 8))
    xi = draw(st.integers(0, 4))
    eta = draw(st.integers(0, 4))
    grid = Grid(n_x=sdx * bx, n_y=sdy * by)
    return Decomposition(grid, n_sdx=sdx, n_sdy=sdy, xi=xi, eta=eta)


class TestDecompositionProperties:
    @given(decompositions())
    @settings(max_examples=50)
    def test_interiors_partition_mesh(self, decomp):
        seen = np.concatenate([sd.interior_flat for sd in decomp])
        assert np.array_equal(np.sort(seen), np.arange(decomp.grid.n))

    @given(decompositions())
    @settings(max_examples=50)
    def test_expansion_contains_interior(self, decomp):
        for sd in decomp:
            assert set(sd.interior_flat) <= set(sd.expansion_flat)

    @given(decompositions())
    @settings(max_examples=50)
    def test_projection_indices_roundtrip(self, decomp):
        for sd in decomp:
            pos = sd.interior_positions_in_expansion
            assert np.array_equal(sd.expansion_flat[pos], sd.interior_flat)

    @given(decompositions())
    @settings(max_examples=50)
    def test_rank_mapping_bijective(self, decomp):
        ranks = {decomp.rank_of(sd.i, sd.j) for sd in decomp}
        assert ranks == set(range(decomp.n_subdomains))

    @given(decompositions(), st.data())
    @settings(max_examples=50)
    def test_owner_consistent_with_interior(self, decomp, data):
        ix = data.draw(st.integers(0, decomp.grid.n_x - 1))
        iy = data.draw(st.integers(0, decomp.grid.n_y - 1))
        rank = decomp.owner_of_point(ix, iy)
        sd = decomp.subdomain_of_rank(rank)
        assert decomp.grid.flat_index(ix, iy) in set(sd.interior_flat)


# ---------------------------------------------------------------------------
# Modified Cholesky
# ---------------------------------------------------------------------------
class TestCholeskyProperties:
    @given(
        st.integers(3, 12),  # n
        st.integers(2, 10),  # N members
        st.floats(0.5, 5.0),  # radius
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_spd(self, n, members, radius, seed):
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(n, members))
        grid = Grid(n_x=n, n_y=1, periodic_x=False)
        binv = modified_cholesky_inverse(
            states, grid, np.arange(n), np.zeros(n, dtype=int), radius_km=radius
        ).toarray()
        assert np.allclose(binv, binv.T, atol=1e-10)
        assert np.linalg.eigvalsh(binv).min() > 0


# ---------------------------------------------------------------------------
# DES kernel
# ---------------------------------------------------------------------------
class TestSimProperties:
    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=30))
    def test_clock_visits_events_in_order(self, delays):
        env = Environment()
        visited = []

        def proc(env, d):
            yield env.timeout(d)
            visited.append(env.now)

        for d in delays:
            env.process(proc(env, d))
        env.run()
        assert visited == sorted(visited)
        assert len(visited) == len(delays)

    @given(
        st.integers(1, 5),  # capacity
        st.lists(st.floats(0.01, 2.0, allow_nan=False), min_size=1, max_size=15),
    )
    def test_resource_conserves_work(self, capacity, services):
        """Total busy time equals the sum of services; makespan is bounded
        by work/capacity (lower) and total work (upper)."""
        env = Environment()
        res = Resource(env, capacity=capacity)

        def user(env, s):
            with res.request() as req:
                yield req
                yield env.timeout(s)

        for s in services:
            env.process(user(env, s))
        env.run()
        total = sum(services)
        assert env.now <= total + 1e-9
        assert env.now >= total / capacity - 1e-9
        assert env.now >= max(services) - 1e-9

    @given(st.lists(st.floats(0.01, 2.0, allow_nan=False), min_size=1, max_size=10))
    def test_fifo_resource_equals_sequential_sum(self, services):
        env = Environment()
        res = Resource(env, capacity=1)

        def user(env, s):
            with res.request() as req:
                yield req
                yield env.timeout(s)

        for s in services:
            env.process(user(env, s))
        env.run()
        assert env.now == pytest.approx(sum(services))
