"""Eqs. (7)–(10): the cost of one S-EnKF multi-stage assimilation.

Faithfulness note.  The paper writes the contention factor of Eq. (7) as
``log(n_cg · n_sdy)`` and the multi-group receive factor of Eq. (8) as
``log(n_cg + 1)``.  A bare ``log(x)`` vanishes at one I/O processor, which
would price file reading at zero and break the optimiser's trade-off, so we
evaluate both factors as ``log2(x + 1)`` — strictly positive, identical
growth, and the "+1" already present in Eq. (8).  This is the only place
the implementation deviates from the printed formulas, and it is what the
paper's own Algorithm 1 needs to produce the Fig. 12 curve shape at small
``C1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.util.validation import check_divides, check_nonnegative, check_positive

@dataclass(frozen=True)
class CostParams:
    """Table 1's problem + machine constants (decision variables excluded)."""

    n_x: int  #: grid points along longitude
    n_y: int  #: grid points along latitude
    n_members: int  #: N — background ensemble members (files)
    h: float  #: bytes of data per grid point
    xi: int  #: ξ — halo half-width along longitude
    eta: int  #: η — halo half-width along latitude
    a: float  #: startup time per message (s)
    b: float  #: transfer time per byte (s/B)
    c: float  #: local-analysis cost per grid point (s)
    theta: float  #: disk-to-memory transfer time per byte (s/B)
    #: expected-retries multiplier on the read term (>= 1).  A fault-free
    #: machine has 1.0; under a known fault regime the expected retry
    #: spend inflates every disk read, which shifts the economic C1/C2
    #: split (see :func:`expected_read_inflation` and
    #: :func:`repro.tuning.autotune.autotune`'s ``faults`` argument).
    read_inflation: float = 1.0

    def __post_init__(self) -> None:
        check_positive("n_x", self.n_x)
        check_positive("n_y", self.n_y)
        check_positive("n_members", self.n_members)
        check_positive("h", self.h)
        check_nonnegative("xi", self.xi)
        check_nonnegative("eta", self.eta)
        check_nonnegative("a", self.a)
        check_nonnegative("b", self.b)
        check_nonnegative("c", self.c)
        check_nonnegative("theta", self.theta)
        if self.read_inflation < 1.0:
            raise ValueError(
                f"read_inflation must be >= 1, got {self.read_inflation}"
            )

    def with_(self, **kwargs) -> "CostParams":
        return replace(self, **kwargs)

    # -- derived quantities ---------------------------------------------------
    def small_bar_rows(self, n_sdy: int, n_layers: int) -> float:
        """Rows of one stage's small bar: ``n_y/(n_sdy·L) + 2η``."""
        return self.n_y / (n_sdy * n_layers) + 2 * self.eta

    def block_cols(self, n_sdx: int) -> float:
        """Columns of one compute rank's block: ``n_x/n_sdx + 2ξ``."""
        return self.n_x / n_sdx + 2 * self.xi

    def validate_choice(
        self, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int
    ) -> None:
        """Raise unless the decision tuple satisfies the divisibility rules
        of Algorithm 1 (lines 3, 6, 8)."""
        check_divides("n_x", self.n_x, "n_sdx", n_sdx)
        check_divides("n_y", self.n_y, "n_sdy", n_sdy)
        check_divides("N", self.n_members, "n_cg", n_cg)
        check_divides(
            "block rows (n_y / n_sdy)", self.n_y // n_sdy, "n_layers", n_layers
        )


def _log_factor(x: float) -> float:
    """The guarded log factor (see module docstring)."""
    return math.log2(x + 1.0)


def t_read(p: CostParams, n_sdy: int, n_layers: int, n_cg: int) -> float:
    """Eq. (7): cost of reading one stage's small bars from all groups."""
    bytes_per_group = (
        p.small_bar_rows(n_sdy, n_layers) * p.n_x * p.h * (p.n_members / n_cg)
    )
    return (
        bytes_per_group * p.theta * _log_factor(n_cg * n_sdy) * p.read_inflation
    )


def t_comm(
    p: CostParams, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int
) -> float:
    """Eq. (8): cost of distributing one stage's blocks to compute ranks."""
    block_bytes = (
        p.small_bar_rows(n_sdy, n_layers)
        * p.block_cols(n_sdx)
        * (p.n_members / n_cg)
        * p.h
    )
    return n_sdx * _log_factor(n_cg) * (p.a + p.b * block_bytes)


def t_comp(p: CostParams, n_sdx: int, n_sdy: int, n_layers: int) -> float:
    """Eq. (9): local analysis on one layer ``D'_{ij,l}``."""
    return p.c * (p.n_y / (n_sdy * n_layers)) * (p.n_x / n_sdx)


def t1(p: CostParams, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int) -> float:
    """The optimisation objective of Eq. (11): ``T_read + T_comm``."""
    return t_read(p, n_sdy, n_layers, n_cg) + t_comm(p, n_sdx, n_sdy, n_layers, n_cg)


def t_total(
    p: CostParams, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int
) -> float:
    """Eq. (10): ``T_read + T_comm + L · T_comp``.

    The first stage's read+comm is exposed; the remaining stages' data
    movement hides behind the L compute stages (the overlap the multi-stage
    workflow buys).
    """
    return t1(p, n_sdx, n_sdy, n_layers, n_cg) + n_layers * t_comp(
        p, n_sdx, n_sdy, n_layers
    )


def t_total_pipelined(
    p: CostParams, n_sdx: int, n_sdy: int, n_layers: int, n_cg: int
) -> float:
    """Pipelined generalisation of Eq. (10).

    Eq. (10) assumes the L−1 later stages' reads and communication hide
    *completely* behind computation, which stops holding once a stage's
    I/O or communication exceeds its computation (e.g. extreme ``n_sdx``
    with one-column blocks, where an I/O rank's serial sends outlast the
    tiny per-stage analysis).  The steady-state stage period of the
    pipeline is the maximum of its three per-stage resources, so

    ``T = (T_read + T_comm) + T_comp + (L−1) · max(T_comp, T_read, T_comm)``

    which **equals Eq. (10) exactly whenever computation is the per-stage
    bottleneck** — the regime the paper operates in — and upper-bounds it
    otherwise.  The auto-tuner uses this objective by default so it never
    selects configurations whose overlap is infeasible; pass
    ``objective="paper"`` for the verbatim Eq. (10).
    """
    read = t_read(p, n_sdy, n_layers, n_cg)
    comm = t_comm(p, n_sdx, n_sdy, n_layers, n_cg)
    comp = t_comp(p, n_sdx, n_sdy, n_layers)
    return read + comm + comp + (n_layers - 1) * max(comp, read, comm)


def predicted_footprint_bytes(
    p: CostParams,
    n_sdx: int,
    n_sdy: int,
    n_layers: int,
    n_cg: int,
    geometry_cache_bytes: float = 0.0,
) -> dict[str, float]:
    """The memory twin of Eq. (10): peak incremental bytes of one cycle.

    The time model prices seconds; this prices the resident bytes the
    same decomposition implies, component by component:

    * ``ensemble_bytes`` — the background ensemble *and* the analysis
      output, both ``n_x·n_y·h·N`` resident simultaneously during the
      update (the analysis engine holds exactly these two arrays, plus
      perturbed observations already counted in staging);
    * ``staging_bytes`` — one stage's worth of in-flight small bars
      (all ``n_cg`` groups stage concurrently: rows ``n_y/(n_sdy·L)+2η``
      by ``n_x`` columns, ``N/n_cg`` members each) plus the halo-padded
      blocks the compute side holds (``n_sdx·n_sdy`` ranks, each
      ``rows × (n_x/n_sdx + 2ξ)`` by ``N/n_cg``).  This is the term the
      C1/C2 economic split trades against I/O: more layers mean smaller
      bars in flight;
    * ``geometry_cache_bytes`` — measured, passed in by the caller
      (:meth:`repro.parallel.geometry.GeometryCache.nbytes`), because
      cached geometry depends on the observation network, which the
      cost model deliberately does not parameterise.

    Returns the components plus their ``total_bytes`` sum — the
    *increment* over the process baseline, not absolute RSS (see
    :func:`repro.telemetry.memprof.footprint_attribution`).
    """
    ensemble = 2.0 * p.n_x * p.n_y * p.h * p.n_members
    rows = p.small_bar_rows(n_sdy, n_layers)
    bars = rows * p.n_x * p.h * p.n_members  # all n_cg groups, one stage
    blocks = (
        rows * p.block_cols(n_sdx) * (p.n_members / n_cg) * p.h
        * n_sdx * n_sdy
    )
    staging = bars + blocks
    total = ensemble + staging + float(geometry_cache_bytes)
    return {
        "ensemble_bytes": ensemble,
        "staging_bytes": staging,
        "geometry_cache_bytes": float(geometry_cache_bytes),
        "total_bytes": total,
    }


def expected_read_inflation(
    fault_rate: float,
    max_retries: int = 3,
    slowdown_rate: float = 0.0,
    slowdown_factor: float = 1.0,
) -> float:
    """Expected multiplier on the read term under a known disk-fault regime.

    A failed disk request consumes its full service time before the fault
    surfaces (see :class:`repro.faults.schedule.FaultSchedule`), so with
    per-request failure probability ``p`` and up to ``max_retries``
    retries the expected number of service intervals per read is the
    truncated geometric sum ``Σ_{i=0}^{m} p^i = (1 − p^{m+1}) / (1 − p)``.
    Slowdown faults scale a request's service by ``slowdown_factor`` with
    probability ``slowdown_rate``, an independent multiplier of
    ``1 + r·(f − 1)``.  Retry *backoff* delays are not proportional to
    bytes moved and are therefore not part of this factor — they show up
    as measured retry spend in the attribution report instead.
    """
    if not 0.0 <= fault_rate < 1.0:
        raise ValueError(f"fault_rate must be in [0, 1), got {fault_rate}")
    if not 0.0 <= slowdown_rate <= 1.0:
        raise ValueError(
            f"slowdown_rate must be in [0, 1], got {slowdown_rate}"
        )
    if slowdown_factor < 1.0:
        raise ValueError(
            f"slowdown_factor must be >= 1, got {slowdown_factor}"
        )
    check_nonnegative("max_retries", max_retries)
    if fault_rate == 0.0:
        attempts = 1.0
    else:
        attempts = (1.0 - fault_rate ** (max_retries + 1)) / (1.0 - fault_rate)
    return attempts * (1.0 + slowdown_rate * (slowdown_factor - 1.0))
