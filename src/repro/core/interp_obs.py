"""Off-grid observations: bilinear-interpolation operators.

The paper's ``H`` is "constructed from some limited observational data"
(Sec. 4.1) — real networks observe between grid points.  This module
provides :class:`InterpolatingObservationNetwork`: each observation sits
at continuous coordinates ``(x, y)`` (in grid-index units) and its ``H``
row bilinearly interpolates the four surrounding grid points (longitude
wraps, latitude clamps).

The class duck-types :class:`~repro.core.observations.ObservationNetwork`
(``m``, ``operator``, ``obs_error_std``, ``restrict_to_box``,
``any_in_box``, ``observe``)
so the local analysis and the filters accept either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.core.grid import Grid
from repro.util.seeding import spawn_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class InterpolatingObservationNetwork:
    """``m`` off-grid observations with bilinear ``H`` rows.

    ``x``/``y`` are continuous grid-index coordinates:
    ``0 <= x < n_x`` (periodic) and ``0 <= y <= n_y - 1`` (clamped).
    """

    grid: Grid
    x: np.ndarray
    y: np.ndarray
    obs_error_std: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be equal-length 1-D arrays")
        if self.x.size == 0:
            raise ValueError("observation network is empty")
        if self.grid.periodic_x:
            if np.any(self.x < 0) or np.any(self.x >= self.grid.n_x):
                raise ValueError("x out of [0, n_x) range")
        else:
            if np.any(self.x < 0) or np.any(self.x > self.grid.n_x - 1):
                raise ValueError("x out of [0, n_x - 1] range")
        if np.any(self.y < 0) or np.any(self.y > self.grid.n_y - 1):
            raise ValueError("y out of [0, n_y - 1] range")
        check_positive("obs_error_std", self.obs_error_std)

    @property
    def m(self) -> int:
        return self.x.size

    def _stencil(self, obs_idx: int) -> list[tuple[int, int, float]]:
        """(ix, iy, weight) of the bilinear stencil of one observation."""
        x = float(self.x[obs_idx])
        y = float(self.y[obs_idx])
        ix0 = int(np.floor(x))
        iy0 = int(np.floor(y))
        fx = x - ix0
        fy = y - iy0
        ix1 = int(self.grid.wrap_x(ix0 + 1)) if self.grid.periodic_x else min(
            ix0 + 1, self.grid.n_x - 1
        )
        iy1 = min(iy0 + 1, self.grid.n_y - 1)
        entries = [
            (ix0, iy0, (1 - fx) * (1 - fy)),
            (ix1, iy0, fx * (1 - fy)),
            (ix0, iy1, (1 - fx) * fy),
            (ix1, iy1, fx * fy),
        ]
        # Merge duplicates arising from clamping (e.g. y on the last row).
        merged: dict[tuple[int, int], float] = {}
        for ix, iy, w in entries:
            if w > 0.0:
                merged[(ix, iy)] = merged.get((ix, iy), 0.0) + w
        return [(ix, iy, w) for (ix, iy), w in merged.items()]

    @cached_property
    def operator(self) -> sp.csr_matrix:
        """Global bilinear ``H ∈ R^{m×n}`` (≤4 entries per row)."""
        rows, cols, vals = [], [], []
        for k in range(self.m):
            for ix, iy, w in self._stencil(k):
                rows.append(k)
                cols.append(iy * self.grid.n_x + ix)
                vals.append(w)
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.m, self.grid.n)
        )

    def r_inv_diag(self) -> np.ndarray:
        return np.full(self.m, 1.0 / self.obs_error_std**2)

    def _inside_box(self, x_pos, y_pos):
        """``(k, stencil)`` of each observation whose *entire stencil*
        lies on the box's grid columns ``x_pos`` and rows ``y_pos``."""
        for k in range(self.m):
            stencil = self._stencil(k)
            if all(ix in x_pos and iy in y_pos for ix, iy, _ in stencil):
                yield k, stencil

    def any_in_box(self, x_indices: np.ndarray, y_indices: np.ndarray) -> bool:
        """Whether :meth:`restrict_to_box` would keep any observation —
        stops at the first one kept, builds no operator."""
        x_pos = {int(v) for v in np.asarray(x_indices)}
        y_pos = {int(v) for v in np.asarray(y_indices)}
        return next(self._inside_box(x_pos, y_pos), None) is not None

    def restrict_to_box(
        self, x_indices: np.ndarray, y_indices: np.ndarray
    ) -> tuple[np.ndarray, sp.csr_matrix]:
        """Observations whose *entire stencil* lies inside the box.

        Same contract as
        :meth:`repro.core.observations.ObservationNetwork.restrict_to_box`.
        An observation straddling the box edge is dropped from this local
        analysis (its owner box — the one containing the full stencil —
        assimilates it), which keeps domain decomposition consistent.
        """
        x_pos = {int(v): p for p, v in enumerate(np.asarray(x_indices))}
        y_pos = {int(v): p for p, v in enumerate(np.asarray(y_indices))}
        n_cols = len(x_pos)
        rows, cols, vals, keep = [], [], [], []
        for local_row, (k, stencil) in enumerate(self._inside_box(x_pos, y_pos)):
            keep.append(k)
            for ix, iy, w in stencil:
                rows.append(local_row)
                cols.append(y_pos[iy] * n_cols + x_pos[ix])
                vals.append(w)
        h_local = sp.csr_matrix(
            (vals, (rows, cols)), shape=(len(keep), n_cols * len(y_pos))
        )
        return np.asarray(keep, dtype=int), h_local

    def observe(self, state: np.ndarray, rng=None, noisy: bool = True) -> np.ndarray:
        """Interpolate a state to the obs locations; optionally add noise."""
        state = np.asarray(state, dtype=float)
        y = np.asarray(self.operator @ state)
        if noisy:
            rng = spawn_rng(rng)
            y = y + rng.normal(0.0, self.obs_error_std, size=self.m)
        return y

    @classmethod
    def random(
        cls, grid: Grid, m: int, obs_error_std: float = 1.0, rng=None
    ) -> "InterpolatingObservationNetwork":
        """``m`` uniformly random off-grid locations."""
        check_positive("m", m)
        rng = spawn_rng(rng)
        hi_x = grid.n_x if grid.periodic_x else grid.n_x - 1
        return cls(
            grid=grid,
            x=rng.uniform(0, hi_x, size=m),
            y=rng.uniform(0, grid.n_y - 1, size=m),
            obs_error_std=obs_error_std,
        )
