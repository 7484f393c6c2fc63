"""EnKF numerics: the mathematics of Sections 2 and 4 of the paper.

Everything in this package is *real* computation (numpy/scipy): grids,
domain decomposition with expansions, localization, ensembles, observation
operators, background-covariance estimation (sample and modified-Cholesky
inverse), the analysis equations (3), (5) and (6), inflation and
verification metrics.

The parallel filters in :mod:`repro.filters` assemble these pieces; the
performance substrate in :mod:`repro.sim`/:mod:`repro.cluster` only ever
*times* the plans derived from them.
"""

from repro.core.grid import Grid
from repro.core.localization import (
    LocalBox,
    gaspari_cohn,
    local_box,
    radius_to_halo,
)
from repro.core.domain import Decomposition, SubDomain
from repro.core.ensemble import Ensemble
from repro.core.observations import ObservationNetwork, perturb_observations
from repro.core.interp_obs import InterpolatingObservationNetwork
from repro.core.covariance import (
    anomalies,
    sample_covariance,
    tapered_covariance,
)
from repro.core.cholesky import modified_cholesky_inverse
from repro.core.analysis import (
    ObservationTerms,
    analysis_gain_form,
    analysis_modified_cholesky,
    analysis_precision_form,
    local_analysis,
)
from repro.core.adaptive import innovation_inflation_factor, rtps
from repro.core.diagnostics import DesroziersStats, desroziers_diagnostics
from repro.core.inflation import inflate
from repro.core.verification import ensemble_spread, rmse

__all__ = [
    "Decomposition",
    "DesroziersStats",
    "Ensemble",
    "Grid",
    "InterpolatingObservationNetwork",
    "LocalBox",
    "ObservationNetwork",
    "ObservationTerms",
    "SubDomain",
    "analysis_gain_form",
    "analysis_modified_cholesky",
    "analysis_precision_form",
    "anomalies",
    "desroziers_diagnostics",
    "ensemble_spread",
    "gaspari_cohn",
    "inflate",
    "innovation_inflation_factor",
    "local_analysis",
    "local_box",
    "modified_cholesky_inverse",
    "perturb_observations",
    "radius_to_halo",
    "rtps",
    "rmse",
    "sample_covariance",
    "tapered_covariance",
]
