"""The four named workloads of the end-to-end cycle benchmark.

Sizes are chosen so that one warm cycle takes 0.5-2 s on two cores: a run
of ``run_seconds`` then holds enough cycles for a steady median while the
driver's ~90 runs still fit its time cap.  ``SMOKE`` keeps every name and
shrinks every size for a seconds-long functional check.  Why each workload
exists is in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

GRID_SPACING_KM = 25.0
HALO = 2  # xi = eta = 2 cells: a 60 km radius on a 25 km mesh


@dataclass(frozen=True)
class Workload:
    name: str
    n_x: int
    n_y: int
    n_sdx: int
    n_sdy: int
    n_layers: int
    #: observations per cycle; spread evenly over the sub-domains unless
    #: ``obs_box`` is set
    n_obs: int
    #: "bar" = S-EnKF + concurrent_access_plan(n_cg=2); "block" = P-EnKF +
    #: block_read_plan
    read: str = "bar"
    #: side of the square box, centred in one sub-domain, that holds every
    #: observation (None = the same count in every sub-domain)
    obs_box: int | None = None
    #: a new ObservationNetwork object every cycle (the identity-keyed
    #: GeometryCache then misses on every cycle)
    moving_network: bool = False
    #: dense observations: the analysis must beat the background
    dense: bool = False
    n_members: int = 24
    #: warm cycles measured at least, however short ``--seconds`` is
    min_cycles: int = 5


FULL = (
    # 256 pieces of 20x6 = 120 expansion points, 20 obs per sub-domain
    Workload(
        name="small_pieces_static",
        n_x=128, n_y=64, n_sdx=8, n_sdy=8, n_layers=4, n_obs=1280, dense=True,
    ),
    # 16 pieces of 40x22 = 880 expansion points, 106 obs per sub-domain
    Workload(
        name="large_pieces_moving",
        n_x=144, n_y=72, n_sdx=4, n_sdy=4, n_layers=1, n_obs=1696, dense=True,
        moving_network=True,
    ),
    # 1.44 MB per member, 34.6 MB ensemble; 200 pieces of 34x34, one of
    # which sees the 32 observations
    Workload(
        name="io_bar",
        n_x=600, n_y=300, n_sdx=20, n_sdy=10, n_layers=1, n_obs=32, obs_box=20,
    ),
    Workload(
        name="io_block",
        n_x=600, n_y=300, n_sdx=20, n_sdy=10, n_layers=1, n_obs=32, obs_box=20,
        read="block",
    ),
)

_SMOKE_SIZES = {
    "small_pieces_static": dict(n_x=64, n_y=32, n_sdx=4, n_sdy=4, n_obs=320),
    "large_pieces_moving": dict(n_x=48, n_y=24, n_sdx=2, n_sdy=2, n_obs=180),
    "io_bar": dict(n_x=120, n_y=60, n_sdx=8, n_sdy=4, n_obs=32, obs_box=8),
    "io_block": dict(n_x=120, n_y=60, n_sdx=8, n_sdy=4, n_obs=32, obs_box=8),
}
SMOKE = tuple(
    replace(w, min_cycles=2, n_members=12, **_SMOKE_SIZES[w.name]) for w in FULL
)


def select(smoke: bool) -> dict[str, Workload]:
    return {w.name: w for w in (SMOKE if smoke else FULL)}
