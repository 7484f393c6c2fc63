"""The two halves of :class:`~repro.parallel.geometry.GeometryCache`.

*Structure* — stencil, row groups, band offsets, interior map, digests —
is keyed by the shape of a piece's expansion and shared by every piece
and every network with that shape; the *network* half (``H``, ``R``,
observation positions) is keyed by network identity and kept for the two
most recently used networks only.  This module pins the shape key on the
end-to-end benchmark's four decompositions (seam-wrapping and polar
pieces included) and the bound on the network half.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import Decomposition, Grid, ObservationNetwork
from repro.core.cholesky import neighbour_predecessors
from repro.filters import SEnKF
from repro.parallel import GeometryCache
from repro.parallel.vectorized import _structural_groups

RADIUS_KM = 60.0
MESH = dict(dx_km=25.0, dy_km=25.0)
#: (n_x, n_y, n_sdx, n_sdy, n_layers) of benchmarks/e2e's workloads
#: (``io_bar`` and ``io_block`` analyse the same pieces)
DECOMPOSITIONS = {
    "small_pieces_static": (128, 64, 8, 8, 4),
    "large_pieces_moving": (144, 72, 4, 4, 1),
    "io": (600, 300, 20, 10, 1),
}


def plan_pieces(name, **grid_kwargs):
    n_x, n_y, n_sdx, n_sdy, n_layers = DECOMPOSITIONS[name]
    grid = Grid(n_x=n_x, n_y=n_y, **{**MESH, **grid_kwargs})
    decomp = Decomposition(grid, n_sdx, n_sdy, xi=2, eta=2)
    filt = SEnKF(radius_km=RADIUS_KM, n_layers=n_layers)
    return grid, filt._plan_pieces(decomp)


def network(grid, seed=0, m=64):
    return ObservationNetwork.random(
        grid, m=m, obs_error_std=0.5, rng=np.random.default_rng(seed)
    )


# ---------------------------------------------------------------------------
# The shape key
# ---------------------------------------------------------------------------
class TestShapeKey:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITIONS))
    def test_shared_stencil_equals_each_pieces_own(self, name):
        """Row by row, the stencil a piece is handed equals the one built
        from its own raw coordinates — wrapped columns (``n_x − 1 → 0``)
        and pole-clamped rows included — and three structures serve the
        whole decomposition."""
        grid, pieces = plan_pieces(name)
        cache, net = GeometryCache(), network(grid)
        wrapped = clamped = 0
        for piece in pieces:
            geometry, _ = cache.get(net, piece, RADIUS_KM)
            exp_ix, exp_iy = piece.expansion_coords
            want = neighbour_predecessors(grid, exp_ix, exp_iy, RADIUS_KM)
            got = geometry.stencil.predecessors
            assert len(got) == len(want)
            for got_row, want_row in zip(got, want):
                assert np.array_equal(got_row, want_row)
            assert np.array_equal(
                geometry.interior_positions,
                piece.interior_positions_in_expansion,
            )
            wrapped += bool(np.any(np.diff(piece.exp_x_indices) < 0))
            clamped += len(piece.exp_y_indices) < piece.n_rows + 2 * piece.eta
        assert wrapped and clamped  # the cases the key must not confuse
        stats = cache.stats
        assert stats["structure_misses"] == 3
        assert stats["structure_hits"] == len(pieces) - 3
        assert len({id(cache.get(net, p, RADIUS_KM)[0].structure)
                    for p in pieces}) == 3

    @pytest.mark.parametrize("other", [
        dict(dx_km=20.0), dict(dy_km=30.0), dict(periodic_x=False),
    ], ids=["dx", "dy", "periodic"])
    def test_grids_that_differ_never_share(self, other):
        """The same box on a grid with another spacing or periodicity is
        another structure (its stencil may well differ)."""
        cache = GeometryCache()
        structures = []
        for kwargs in ({}, other):
            grid, pieces = plan_pieces("large_pieces_moving", **kwargs)
            interior = pieces[5]  # not on the seam, not at a pole
            structures.append(
                cache.get(network(grid), interior, RADIUS_KM)[0].structure
            )
        assert structures[0] is not structures[1]
        assert cache.stats["structure_misses"] == 2

    def test_radius_is_part_of_the_key(self):
        grid, pieces = plan_pieces("large_pieces_moving")
        cache, net = GeometryCache(), network(grid)
        with_stencil = cache.get(net, pieces[5], RADIUS_KM)[0]
        wider = cache.get(net, pieces[5], 80.0)[0]
        assert cache.stats["structure_misses"] == 2
        assert with_stencil.stencil_sig != wider.stencil_sig
        assert wider.interior_sig == with_stencil.interior_sig

    def test_new_network_rebuilds_no_structure(self):
        """A new network object on the same decomposition: every
        structure hits, the digests — and so the batched engine's
        buckets — are unchanged."""
        grid, pieces = plan_pieces("small_pieces_static")
        cache = GeometryCache()
        first = [cache.get(network(grid, 1, m=1280), p, RADIUS_KM)[0]
                 for p in pieces]
        before = cache.stats
        moved = network(grid, 2, m=1280)
        second = [cache.get(moved, p, RADIUS_KM)[0] for p in pieces]
        after = cache.stats
        assert after["structure_misses"] == before["structure_misses"] == 3
        assert after["misses"] - before["misses"] == len(pieces)
        for old, new in zip(first, second):
            assert new.structure is old.structure
            assert (new.interior_sig, new.stencil_sig) == (
                old.interior_sig, old.stencil_sig
            )
            assert new.h_local is not old.h_local

        def groups(geometries):
            prepared = [(i, None, g) for i, g in enumerate(geometries)]
            return [[i for i, _, _ in group]
                    for group in _structural_groups(prepared)]

        assert groups(first) == groups(second)


# ---------------------------------------------------------------------------
# The network half is bounded
# ---------------------------------------------------------------------------
class TestNetworkBound:
    def _pieces(self):
        return plan_pieces("large_pieces_moving")

    def _cycle(self, cache, net, pieces):
        """What a vectorized cycle asks of the cache: every piece, then a
        bucket over the first four.  Returns the hit flags."""
        items = []
        hits = []
        for i, piece in enumerate(pieces):
            geometry, hit = cache.get(net, piece, RADIUS_KM)
            items.append((i, piece, geometry))
            hits.append(hit)
        same_shape = [
            item for item in items
            if item[2].structure is items[5][2].structure
        ][:4]
        hits.append(cache.get_bucket(net, same_shape, RADIUS_KM)[1])
        return hits

    def test_a_moving_network_leaves_the_cache_flat(self):
        grid, pieces = self._pieces()
        cache = GeometryCache()
        sizes = []
        for seed in range(20):
            hits = self._cycle(cache, network(grid, seed, m=1696), pieces)
            assert not any(hits)
            sizes.append((cache.stats["entries"], cache.nbytes()))
        per_network = len(pieces) + 1
        assert sizes[0][0] == per_network
        assert {entries for entries, _ in sizes[1:]} == {2 * per_network}
        # flat: only the random sites' count per box moves the bytes
        held = [nbytes for _, nbytes in sizes[2:]]
        assert max(held) < 1.01 * min(held) < 2e6
        assert cache.stats["structure_misses"] == 3  # never evicted

    def test_a_static_network_always_hits(self):
        grid, pieces = self._pieces()
        cache, net = GeometryCache(), network(grid, m=1696)
        self._cycle(cache, net, pieces)
        for _ in range(5):
            assert all(self._cycle(cache, net, pieces))

    def test_two_alternating_networks_hit_after_warm_up(self):
        grid, pieces = self._pieces()
        cache = GeometryCache()
        nets = [network(grid, seed, m=1696) for seed in (1, 2)]
        for net in nets:
            assert not any(self._cycle(cache, net, pieces))
        for _ in range(3):
            for net in nets:
                assert all(self._cycle(cache, net, pieces))

    def test_a_third_network_drops_the_oldest_and_its_pin(self):
        import gc
        import weakref

        grid, pieces = self._pieces()
        cache = GeometryCache()
        nets = [network(grid, seed, m=1696) for seed in range(3)]
        refs = [weakref.ref(net) for net in nets]
        for net in nets:
            self._cycle(cache, net, pieces)
        assert all(self._cycle(cache, nets[2], pieces))
        assert all(self._cycle(cache, nets[1], pieces))
        assert not any(self._cycle(cache, nets[0], pieces))  # was dropped
        del nets, net
        gc.collect()
        # the observed() slot is not used here: two networks stay pinned
        assert sum(ref() is not None for ref in refs) == 2

    def test_maxsize_still_bounds_the_entry_count(self):
        grid, pieces = self._pieces()
        cache = GeometryCache(maxsize=5)
        for seed in range(3):
            self._cycle(cache, network(grid, seed, m=1696), pieces)
            assert cache.stats["entries"] <= 5

    def test_bucket_hit_rebinds_plan_indices_only(self):
        grid, pieces = self._pieces()
        cache, net = GeometryCache(), network(grid, m=1696)
        items = [
            (i, p, cache.get(net, p, RADIUS_KM)[0])
            for i, p in enumerate(pieces)
        ]
        batch = [items[5], items[6]]
        built, hit = cache.get_bucket(net, batch, RADIUS_KM)
        assert not hit and built.plan_indices == (5, 6)
        same, hit = cache.get_bucket(net, batch, RADIUS_KM)
        assert hit and same is built
        renumbered = [(40 + i, p, g) for i, p, g in batch]
        rebound, hit = cache.get_bucket(net, renumbered, RADIUS_KM)
        assert hit and rebound.plan_indices == (45, 46)
        assert rebound.exp_index is built.exp_index
        assert rebound.h_block is built.h_block
        assert built.plan_indices == (5, 6)  # the cached entry is untouched

    def test_concurrent_lookups_lose_no_update(self):
        """More threads than cores, a short switch interval, three
        networks rotating through a cache that keeps two: every counter
        update and every ``observed`` answer survives."""
        grid, pieces = self._pieces()
        cache = GeometryCache()
        nets = [network(grid, seed, m=40) for seed in range(3)]
        expected = [
            tuple(i for i, p in enumerate(pieces)
                  if net.any_in_box(p.exp_x_indices, p.exp_y_indices))
            for net in nets
        ]
        counts = [
            [net.restrict_to_box(p.exp_x_indices, p.exp_y_indices)[0].size
             for p in pieces]
            for net in nets
        ]
        n_threads, rounds = 4, 30
        wrong = []

        def work(offset):
            for r in range(rounds):
                k = (r + offset) % len(nets)
                if cache.observed(nets[k], pieces) != expected[k]:
                    wrong.append((offset, r, "observed"))
                for i, piece in enumerate(pieces):
                    geometry, _ = cache.get(nets[k], piece, RADIUS_KM)
                    if geometry.obs_positions.size != counts[k][i]:
                        wrong.append((offset, r, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        stats = cache.stats
        assert stats["hits"] + stats["misses"] == (
            n_threads * rounds * len(pieces)
        )
        assert stats["entries"] <= 2 * len(pieces)
