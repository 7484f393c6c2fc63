"""Closed-form cost model of the multi-stage computation (Sec. 4.3).

Implements Table 1's parameter bundle and Eqs. (7)–(10):

.. math::

   T_{read} &= \\Big(\\big(\\tfrac{n_y}{n_{sdy} L} + 2\\eta\\big)\\, n_x\\, h\\,
               \\tfrac{N}{n_{cg}}\\, \\theta\\Big)\\,\\log(n_{cg} n_{sdy}) \\\\
   T_{comm} &= n_{sdx} \\log(n_{cg}+1)\\,\\Big(a + b \\big(\\tfrac{n_y}{n_{sdy} L}
               + 2\\eta\\big) \\big(\\tfrac{n_x}{n_{sdx}} + 2\\xi\\big)
               \\tfrac{N}{n_{cg}}\\, h\\Big) \\\\
   T_{comp} &= c\\, \\tfrac{n_y}{n_{sdy} L}\\, \\tfrac{n_x}{n_{sdx}} \\\\
   T_{total} &= T_{read} + T_{comm} + L\\, T_{comp}

The model feeds the auto-tuner (:mod:`repro.tuning`) and is validated
against the simulator in the Fig. 12 benchmark.
"""

from repro.costmodel.model import (
    CostParams,
    expected_read_inflation,
    predicted_footprint_bytes,
    t_comm,
    t_comp,
    t_read,
    t_total,
    t1,
)
from repro.costmodel.calibrate import (
    FitResult,
    PhaseFit,
    PhaseObservation,
    calibrate_from_machine,
    fit_constants,
    observation_from_sim_report,
)

__all__ = [
    "CostParams",
    "FitResult",
    "PhaseFit",
    "PhaseObservation",
    "calibrate_from_machine",
    "expected_read_inflation",
    "fit_constants",
    "observation_from_sim_report",
    "predicted_footprint_bytes",
    "t1",
    "t_comm",
    "t_comp",
    "t_read",
    "t_total",
]
