"""Domain decomposition: sub-domains, expansions, ranks, layers.

The mesh is split into ``n_s = n_sdx * n_sdy`` non-overlapping sub-domains
``D_ij`` (Sec. 2.2); ``n_x`` must be a multiple of ``n_sdx`` and ``n_y`` of
``n_sdy``, as the paper assumes.  Each sub-domain's *expansion* ``D̄_ij``
adds the ξ/η halo needed so every interior point's local box is available
(Fig. 2(b)) — periodic along longitude, clamped at the poles.

Rank convention: the compute processor that owns ``D_ij`` has
``rank = j * n_sdx + i``, i.e. ranks are grouped by latitude band ``j``.
This matches the bar-reading layout: the I/O processor reading bar ``j``
serves exactly the contiguous rank range ``[j*n_sdx, (j+1)*n_sdx)``.

For S-EnKF's multi-stage computation the interior of each sub-domain is
further split into ``L`` *layers* along latitude (:meth:`SubDomain.layers`),
updated one after another so stage ``l+1``'s reads overlap stage ``l``'s
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.core.grid import Grid
from repro.util.validation import check_divides, check_nonnegative


@dataclass(frozen=True)
class LayerSlice:
    """One stage's slice of a sub-domain: interior rows + the rows to read."""

    index: int
    iy0: int  #: first interior latitude row of the layer (inclusive)
    iy1: int  #: last interior latitude row of the layer (exclusive)
    read_iy0: int  #: first latitude row needed to update the layer
    read_iy1: int  #: last needed row (exclusive)

    @property
    def n_rows(self) -> int:
        return self.iy1 - self.iy0

    @property
    def n_read_rows(self) -> int:
        return self.read_iy1 - self.read_iy0


@dataclass(frozen=True)
class SubDomain:
    """One sub-domain ``D_ij`` and its expansion ``D̄_ij``."""

    grid: Grid
    i: int  #: sub-domain index along longitude, 0 <= i < n_sdx
    j: int  #: sub-domain index along latitude, 0 <= j < n_sdy
    ix0: int
    ix1: int
    iy0: int
    iy1: int
    xi: int  #: halo half-width along longitude (ξ)
    eta: int  #: halo half-width along latitude (η)

    def __reduce__(self):
        # Rebuild from the nine defining fields: the cached_property index
        # arrays are cheap to re-derive (or come from the geometry cache)
        # and would otherwise bloat every pickled piece.
        return (
            self.__class__,
            (
                self.grid, self.i, self.j,
                self.ix0, self.ix1, self.iy0, self.iy1,
                self.xi, self.eta,
            ),
        )

    # -- interior -------------------------------------------------------------
    @property
    def n_cols(self) -> int:
        return self.ix1 - self.ix0

    @property
    def n_rows(self) -> int:
        return self.iy1 - self.iy0

    @property
    def size(self) -> int:
        """Number of interior points ``n_sd``."""
        return self.n_cols * self.n_rows

    # -- expansion ------------------------------------------------------------
    @cached_property
    def exp_x_indices(self) -> np.ndarray:
        """Wrapped longitude indices of the expansion columns (in order)."""
        span = min(self.n_cols + 2 * self.xi, self.grid.n_x)
        if not self.grid.periodic_x:
            lo = max(0, self.ix0 - self.xi)
            hi = min(self.grid.n_x, self.ix1 + self.xi)
            return np.arange(lo, hi)
        start = self.ix0 - self.xi
        return np.mod(np.arange(start, start + span), self.grid.n_x)

    @cached_property
    def exp_y_indices(self) -> np.ndarray:
        """Clamped latitude rows of the expansion (in order)."""
        lo = max(0, self.iy0 - self.eta)
        hi = min(self.grid.n_y, self.iy1 + self.eta)
        return np.arange(lo, hi)

    @property
    def exp_size(self) -> int:
        """Number of expansion points ``n̄_sd``."""
        return len(self.exp_x_indices) * len(self.exp_y_indices)

    @cached_property
    def expansion_flat(self) -> np.ndarray:
        """Flat global indices of the expansion, row-major (lat, then lon)."""
        xs = self.exp_x_indices
        ys = self.exp_y_indices
        return (ys[:, None] * self.grid.n_x + xs[None, :]).ravel()

    @cached_property
    def interior_flat(self) -> np.ndarray:
        """Flat global indices of the interior, row-major."""
        xs = np.arange(self.ix0, self.ix1)
        ys = np.arange(self.iy0, self.iy1)
        return (ys[:, None] * self.grid.n_x + xs[None, :]).ravel()

    @cached_property
    def interior_positions_in_expansion(self) -> np.ndarray:
        """Positions of interior points inside the expansion ordering.

        This is the projection ``P_ij`` of Eq. (6) represented as an index
        array: ``x_interior = x_expansion[positions]``.
        """
        positions = np.full(self.grid.n, -1)
        positions[self.expansion_flat] = np.arange(self.expansion_flat.size)
        return positions[self.interior_flat]

    @cached_property
    def expansion_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(ix, iy) arrays for every expansion point (expansion order)."""
        xs = self.exp_x_indices
        ys = self.exp_y_indices
        ix = np.tile(xs, len(ys))
        iy = np.repeat(ys, len(xs))
        return ix, iy

    # -- layers (multi-stage computation) --------------------------------------
    def layers(self, n_layers: int) -> list[LayerSlice]:
        """Split the interior rows into ``L`` equal latitude layers.

        Each layer also carries the row range that must be *read* to update
        it (its rows ± η, clamped) — the "small bar" of Sec. 4.3's
        ``T_read``: ``(n_y/(n_sdy·L) + 2η)`` rows.
        """
        check_divides("sub-domain rows", self.n_rows, "n_layers", n_layers)
        rows_per = self.n_rows // n_layers
        out = []
        for l in range(n_layers):
            iy0 = self.iy0 + l * rows_per
            iy1 = iy0 + rows_per
            out.append(
                LayerSlice(
                    index=l,
                    iy0=iy0,
                    iy1=iy1,
                    read_iy0=max(0, iy0 - self.eta),
                    read_iy1=min(self.grid.n_y, iy1 + self.eta),
                )
            )
        return out

    def layer_interior_flat(self, layer: LayerSlice) -> np.ndarray:
        """Flat global indices of one layer's interior points."""
        xs = np.arange(self.ix0, self.ix1)
        ys = np.arange(layer.iy0, layer.iy1)
        return (ys[:, None] * self.grid.n_x + xs[None, :]).ravel()

    def layer_expansion_flat(self, layer: LayerSlice) -> np.ndarray:
        """Flat global indices of the expansion restricted to one layer.

        Columns are the full expansion columns; rows are the layer's read
        rows.  The union over layers reproduces :attr:`expansion_flat`'s
        point set.
        """
        xs = self.exp_x_indices
        ys = np.arange(layer.read_iy0, layer.read_iy1)
        return (ys[:, None] * self.grid.n_x + xs[None, :]).ravel()


class Decomposition:
    """The full ``n_sdx × n_sdy`` decomposition with halos (ξ, η)."""

    def __init__(self, grid: Grid, n_sdx: int, n_sdy: int, xi: int, eta: int):
        check_divides("n_x", grid.n_x, "n_sdx", n_sdx)
        check_divides("n_y", grid.n_y, "n_sdy", n_sdy)
        check_nonnegative("xi", xi)
        check_nonnegative("eta", eta)
        self.grid = grid
        self.n_sdx = int(n_sdx)
        self.n_sdy = int(n_sdy)
        self.xi = int(xi)
        self.eta = int(eta)
        self._cache: dict[tuple[int, int], SubDomain] = {}

    @property
    def n_subdomains(self) -> int:
        return self.n_sdx * self.n_sdy

    @property
    def block_cols(self) -> int:
        """Interior columns per sub-domain (``n_x / n_sdx``)."""
        return self.grid.n_x // self.n_sdx

    @property
    def block_rows(self) -> int:
        """Interior rows per sub-domain (``n_y / n_sdy``)."""
        return self.grid.n_y // self.n_sdy

    @property
    def points_per_subdomain(self) -> int:
        """``n_sd = n / (n_sdx * n_sdy)``."""
        return self.block_cols * self.block_rows

    def subdomain(self, i: int, j: int) -> SubDomain:
        """The sub-domain ``D_ij`` (cached)."""
        if not 0 <= i < self.n_sdx:
            raise ValueError(f"i={i} out of range [0, {self.n_sdx})")
        if not 0 <= j < self.n_sdy:
            raise ValueError(f"j={j} out of range [0, {self.n_sdy})")
        key = (i, j)
        if key not in self._cache:
            self._cache[key] = SubDomain(
                grid=self.grid,
                i=i,
                j=j,
                ix0=i * self.block_cols,
                ix1=(i + 1) * self.block_cols,
                iy0=j * self.block_rows,
                iy1=(j + 1) * self.block_rows,
                xi=self.xi,
                eta=self.eta,
            )
        return self._cache[key]

    def __iter__(self) -> Iterator[SubDomain]:
        """Iterate sub-domains in rank order (latitude band major)."""
        for j in range(self.n_sdy):
            for i in range(self.n_sdx):
                yield self.subdomain(i, j)

    # -- rank mapping -----------------------------------------------------------
    def rank_of(self, i: int, j: int) -> int:
        """Compute rank owning ``D_ij`` (latitude-band-major)."""
        return j * self.n_sdx + i

    def ij_of(self, rank: int) -> tuple[int, int]:
        """Inverse of :meth:`rank_of`."""
        if not 0 <= rank < self.n_subdomains:
            raise ValueError(f"rank={rank} out of range [0, {self.n_subdomains})")
        return rank % self.n_sdx, rank // self.n_sdx

    def subdomain_of_rank(self, rank: int) -> SubDomain:
        i, j = self.ij_of(rank)
        return self.subdomain(i, j)

    def owner_of_point(self, ix: int, iy: int) -> int:
        """Rank owning the grid point (ix, iy)."""
        if not 0 <= ix < self.grid.n_x or not 0 <= iy < self.grid.n_y:
            raise ValueError(f"point ({ix}, {iy}) outside the mesh")
        return self.rank_of(ix // self.block_cols, iy // self.block_rows)

    # -- bar geometry (reading strategies) ---------------------------------------
    def bar_rows(self, j: int) -> tuple[int, int]:
        """Latitude row range [iy0, iy1) of bar ``j`` (no halo)."""
        if not 0 <= j < self.n_sdy:
            raise ValueError(f"j={j} out of range [0, {self.n_sdy})")
        return j * self.block_rows, (j + 1) * self.block_rows

    def bar_read_rows(self, j: int) -> tuple[int, int]:
        """Row range bar ``j``'s I/O processor must read (rows ± η, clamped)."""
        iy0, iy1 = self.bar_rows(j)
        return max(0, iy0 - self.eta), min(self.grid.n_y, iy1 + self.eta)
