"""Observation networks, operators ``H``, error covariances ``R`` and
perturbed observations ``Y^s``.

The paper treats ``H`` as a linear operator constructed "from some limited
observational data" (Sec. 4.1): each observation touches a small stencil of
grid points.  We implement the two standard cases — point observations
(selection rows) and bilinear-interpolation rows — as ``scipy.sparse``
matrices, plus the restriction of a network to a sub-domain expansion
needed by the local analysis (Eq. 6).
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
class ObservationNetwork:
    """``m`` observations on a grid: locations, operator, error statistics.

    Attributes
    ----------
    grid:
        The model mesh.
    ix, iy:
        Integer grid coordinates of each observation (shape (m,)).  The
        repo uses grid-located observations; ``H`` rows are selections.
    obs_error_std:
        Standard deviation of observation error (scalar, diagonal R).
    """

    grid: Grid
    ix: np.ndarray
    iy: np.ndarray
    obs_error_std: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ix", np.asarray(self.ix, dtype=int))
        object.__setattr__(self, "iy", np.asarray(self.iy, dtype=int))
        if self.ix.shape != self.iy.shape or self.ix.ndim != 1:
            raise ValueError("ix and iy must be equal-length 1-D arrays")
        if self.ix.size == 0:
            raise ValueError("observation network is empty")
        if np.any(self.ix < 0) or np.any(self.ix >= self.grid.n_x):
            raise ValueError("observation ix out of range")
        if np.any(self.iy < 0) or np.any(self.iy >= self.grid.n_y):
            raise ValueError("observation iy out of range")
        check_positive("obs_error_std", self.obs_error_std)

    @property
    def m(self) -> int:
        """Number of observed components."""
        return self.ix.size

    @cached_property
    def flat_locations(self) -> np.ndarray:
        """Flat state index of each observation's grid point."""
        return self.iy * self.grid.n_x + self.ix

    # -- operators ---------------------------------------------------------------
    @cached_property
    def operator(self) -> sp.csr_matrix:
        """Global ``H ∈ R^{m×n}`` (selection rows), CSR."""
        m = self.m
        return sp.csr_matrix(
            (np.ones(m), (np.arange(m), self.flat_locations)),
            shape=(m, self.grid.n),
        )

    def r_matrix(self) -> sp.dia_matrix:
        """Diagonal ``R ∈ R^{m×m}``."""
        return sp.diags(np.full(self.m, self.obs_error_std**2))

    def r_inv_diag(self) -> np.ndarray:
        """Diagonal of ``R⁻¹`` as a vector."""
        return np.full(self.m, 1.0 / self.obs_error_std**2)

    # -- restriction to a local expansion -----------------------------------------
    def _box_local(
        self, x_indices: np.ndarray, y_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Box-local ``(px, py)`` position of every observation, ``-1``
        on an axis where it lies outside the (x_indices × y_indices) box."""
        # Inverse maps grid coordinate -> box-local position (-1 = outside);
        # one vectorised gather per axis instead of a python loop over m.
        x_map = np.full(self.grid.n_x, -1)
        x_map[x_indices] = np.arange(x_indices.size)
        y_map = np.full(self.grid.n_y, -1)
        y_map[y_indices] = np.arange(y_indices.size)
        return x_map[self.ix], y_map[self.iy]

    def any_in_box(self, x_indices: np.ndarray, y_indices: np.ndarray) -> bool:
        """Whether :meth:`restrict_to_box` would keep any observation —
        the membership test alone, no operator built."""
        px, py = self._box_local(
            np.asarray(x_indices, dtype=int), np.asarray(y_indices, dtype=int)
        )
        return bool(np.any((px >= 0) & (py >= 0)))

    def restrict_to_box(
        self, x_indices: np.ndarray, y_indices: np.ndarray
    ) -> tuple[np.ndarray, sp.csr_matrix]:
        """Observations inside an (x_indices × y_indices) box.

        Returns ``(obs_positions, H_local)`` where ``obs_positions`` indexes
        the *global* observation vector (which observations fall in the
        box, shape (m̄,)) and ``H_local ∈ R^{m̄ × n̄}`` maps box-local state
        (row-major over y_indices × x_indices) to those observations.
        Either may be empty if no observation lies in the box.
        """
        x_indices = np.asarray(x_indices, dtype=int)
        y_indices = np.asarray(y_indices, dtype=int)
        px, py = self._box_local(x_indices, y_indices)
        inside = (px >= 0) & (py >= 0)
        positions = np.nonzero(inside)[0]
        cols = py[inside] * x_indices.size + px[inside]
        n_local = x_indices.size * y_indices.size
        h_local = sp.csr_matrix(
            (np.ones(positions.size), (np.arange(positions.size), cols)),
            shape=(positions.size, n_local),
        )
        return positions, h_local

    # -- synthesis ----------------------------------------------------------------
    def observe(self, state: np.ndarray, rng=None, noisy: bool = True) -> np.ndarray:
        """Apply H to a state; optionally add N(0, R) noise (synthetic obs)."""
        state = np.asarray(state, dtype=float)
        y = state[self.flat_locations]
        if noisy:
            rng = spawn_rng(rng)
            y = y + rng.normal(0.0, self.obs_error_std, size=self.m)
        return y

    @classmethod
    def random(
        cls,
        grid: Grid,
        m: int,
        obs_error_std: float = 1.0,
        rng=None,
    ) -> "ObservationNetwork":
        """Uniformly random network of ``m`` distinct grid locations."""
        check_positive("m", m)
        if m > grid.n:
            raise ValueError(f"cannot place {m} distinct obs on {grid.n} points")
        rng = spawn_rng(rng)
        flat = rng.choice(grid.n, size=m, replace=False)
        flat = np.sort(flat)
        return cls(
            grid=grid,
            ix=flat % grid.n_x,
            iy=flat // grid.n_x,
            obs_error_std=obs_error_std,
        )

    @classmethod
    def regular(
        cls,
        grid: Grid,
        every_x: int,
        every_y: int,
        obs_error_std: float = 1.0,
    ) -> "ObservationNetwork":
        """Regular network observing every (every_x, every_y)-th point."""
        check_positive("every_x", every_x)
        check_positive("every_y", every_y)
        xs = np.arange(0, grid.n_x, every_x)
        ys = np.arange(0, grid.n_y, every_y)
        ix = np.tile(xs, len(ys))
        iy = np.repeat(ys, len(xs))
        return cls(grid=grid, ix=ix, iy=iy, obs_error_std=obs_error_std)


def perturb_observations(
    y: np.ndarray,
    obs_error_std: float,
    ensemble_size: int,
    rng=None,
    center: bool = True,
) -> np.ndarray:
    """Perturbed-observation matrix ``Y^s ∈ R^{m×N}`` (Sec. 2.1).

    Each column is ``y + ε_k`` with ``ε_k ~ N(0, R)``.  With ``center=True``
    the perturbations are recentred to zero mean so the analysed ensemble
    mean is unbiased for finite N (standard stochastic-EnKF practice).
    """
    check_positive("obs_error_std", obs_error_std)
    check_positive("ensemble_size", ensemble_size)
    y = np.asarray(y, dtype=float).ravel()
    rng = spawn_rng(rng)
    eps = rng.normal(0.0, obs_error_std, size=(y.size, ensemble_size))
    if center and ensemble_size > 1:
        eps -= eps.mean(axis=1, keepdims=True)
    return y[:, None] + eps
