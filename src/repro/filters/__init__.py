"""Assembled assimilation systems: L-EnKF, P-EnKF and S-EnKF.

Each filter couples the shared numerics (:mod:`repro.core`) with a data
movement strategy (:mod:`repro.io`), and exposes two execution paths:

* ``assimilate(...)`` — real numpy numerics on real ensembles, organised
  by the same decomposition the parallel implementation uses;
* ``simulate_*`` — the full distributed orchestration on the DES machine,
  returning a :class:`~repro.filters.base.SimReport` with per-rank phase
  timelines (read / comm / compute / wait).

=========  =============================================================
L-EnKF     single reader, serial member distribution, local analyses
P-EnKF     block reading by every rank (state of the art the paper
           compares against), modified-Cholesky local analyses, no
           phase overlap
S-EnKF     concurrent bar-reading groups + multi-stage computation with
           helper-thread communication — file reading and communication
           overlap the local analyses (the paper's contribution)
=========  =============================================================
"""

from repro.filters.base import PerfScenario, SimReport
from repro.filters.cycling import CampaignReport, CycleCosts, ReanalysisCampaign
from repro.filters.serial import SerialEnKF
from repro.filters.distributed import DistributedEnKF
from repro.filters.lenkf import LEnKF, simulate_lenkf
from repro.filters.penkf import PEnKF, simulate_penkf
from repro.filters.senkf import SEnKF, simulate_senkf, simulate_senkf_autotuned

__all__ = [
    "CampaignReport",
    "CycleCosts",
    "DistributedEnKF",
    "LEnKF",
    "PEnKF",
    "PerfScenario",
    "ReanalysisCampaign",
    "SEnKF",
    "SerialEnKF",
    "SimReport",
    "simulate_lenkf",
    "simulate_penkf",
    "simulate_senkf",
    "simulate_senkf_autotuned",
]
