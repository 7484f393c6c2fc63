"""Machine-constant calibration: MachineSpec + problem → CostParams.

The auto-tuner consumes :class:`~repro.costmodel.model.CostParams`; this
module builds them from a simulated machine and a problem description, and
can *measure* the effective constants two ways:

* :func:`calibrate_from_machine` microbenchmarks a single disk stream
  (useful when disk concurrency limits make the effective θ differ from
  the nominal per-stream θ);
* :func:`fit_constants` recovers the full constant bundle ``a, b, c, θ``
  by least squares from *measured phase durations* of one or more traced
  runs — the observe → calibrate → tune loop.  Eqs. (7)–(9) are linear in
  the machine constants, so given per-stage read/comm/comp seconds of
  runs with known decision tuples the constants drop out of four
  one- and two-parameter regressions, with residual diagnostics showing
  where the closed form and the machine disagree (e.g. the contention
  factor overpricing uncontended small runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.machine import Machine
from repro.cluster.params import MachineSpec
from repro.costmodel.model import (
    CostParams,
    t_comm,
    t_comp,
    t_read,
)
from repro.sim import Environment


def calibrate_from_machine(
    spec: MachineSpec,
    n_x: int,
    n_y: int,
    n_members: int,
    h: float,
    xi: int,
    eta: int,
    measure_theta: bool = False,
    probe_bytes: float = 1 << 24,
) -> CostParams:
    """Build cost-model constants for a machine and problem.

    With ``measure_theta=True`` the effective per-byte disk time is
    measured by timing a single-stream read on a fresh simulated machine
    (which includes the request's seek amortisation); otherwise the
    nominal ``spec.theta`` is used.
    """
    theta = spec.theta
    if measure_theta:
        machine = Machine(spec, env=Environment())
        done = {}

        def probe(env):
            outcome = yield from machine.pfs.read(0, seeks=1, nbytes=probe_bytes)
            done["service"] = outcome.service

        machine.env.process(probe(machine.env))
        machine.run()
        theta = done["service"] / probe_bytes

    return CostParams(
        n_x=n_x,
        n_y=n_y,
        n_members=n_members,
        h=h,
        xi=xi,
        eta=eta,
        a=spec.alpha,
        b=spec.beta,
        c=spec.c_point,
        theta=theta,
    )


# -- fitting constants from telemetry -----------------------------------------

@dataclass(frozen=True)
class PhaseObservation:
    """Measured per-stage phase seconds of one run with a known tuple.

    ``read_seconds``/``comm_seconds`` are the mean per-I/O-rank time in
    the read/comm phase of *one stage* (per-rank total over the run
    divided by ``n_layers``); ``comp_seconds`` is the per-compute-rank
    per-layer analysis time — the exact quantities Eqs. (7)–(9) price.
    Build from a simulated run with :func:`observation_from_sim_report`.
    """

    n_sdx: int
    n_sdy: int
    n_layers: int
    n_cg: int
    read_seconds: float
    comm_seconds: float
    comp_seconds: float


def observation_from_sim_report(report) -> PhaseObservation:
    """Reduce one :class:`~repro.filters.base.SimReport` to an observation.

    Accepts anything with ``mean_phase_times(side)`` and the decision
    tuple attributes (duck-typed: importing the filters package here
    would be circular).
    """
    from repro.sim.trace import PHASE_COMM, PHASE_COMPUTE, PHASE_READ

    io_means = report.mean_phase_times("io")
    compute_means = report.mean_phase_times("compute")
    n_layers = max(1, int(report.n_layers))
    return PhaseObservation(
        n_sdx=report.n_sdx,
        n_sdy=report.n_sdy,
        n_layers=n_layers,
        n_cg=max(1, int(report.n_cg)),
        read_seconds=io_means.get(PHASE_READ, 0.0) / n_layers,
        comm_seconds=io_means.get(PHASE_COMM, 0.0) / n_layers,
        comp_seconds=compute_means.get(PHASE_COMPUTE, 0.0) / n_layers,
    )


@dataclass(frozen=True)
class PhaseFit:
    """Residual diagnostics of one phase's regression."""

    measured: tuple[float, ...]
    fitted: tuple[float, ...]

    @property
    def relative_errors(self) -> tuple[float, ...]:
        return tuple(
            (f - m) / m if m > 0 else (math.inf if f > 0 else 0.0)
            for m, f in zip(self.measured, self.fitted)
        )

    @property
    def rel_rms(self) -> float:
        errs = self.relative_errors
        finite = [e for e in errs if math.isfinite(e)]
        if not finite:
            return 0.0
        return math.sqrt(sum(e * e for e in finite) / len(finite))

    @property
    def rel_max(self) -> float:
        finite = [abs(e) for e in self.relative_errors if math.isfinite(e)]
        return max(finite, default=0.0)


@dataclass(frozen=True)
class FitResult:
    """Constants recovered from telemetry plus per-phase residuals."""

    params: CostParams
    n_observations: int
    residuals: dict[str, PhaseFit] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-safe rollup for reports and the doctor dashboard."""
        return {
            "n_observations": self.n_observations,
            "constants": {
                "a": self.params.a,
                "b": self.params.b,
                "c": self.params.c,
                "theta": self.params.theta,
            },
            "residuals": {
                phase: {"rel_rms": fit.rel_rms, "rel_max": fit.rel_max}
                for phase, fit in self.residuals.items()
            },
        }


def _nonneg_lstsq_2(xa: list[float], xb: list[float], y: list[float]):
    """Least squares ``y ≈ a·xa + b·xb`` with both coefficients clamped >= 0."""
    import numpy as np

    design = np.column_stack([xa, xb])
    coef, *_ = np.linalg.lstsq(design, np.asarray(y), rcond=None)
    a, b = float(coef[0]), float(coef[1])
    if a < 0.0 or b < 0.0:
        # Clamp the negative coefficient and refit the other alone: with
        # two strongly collinear regressors (startup vs per-byte term at
        # one message size) the min-norm solution can go negative, and a
        # negative machine constant is meaningless.
        if a < 0.0:
            a = 0.0
            denom = float(np.dot(xb, xb))
            b = max(0.0, float(np.dot(xb, y)) / denom) if denom else 0.0
        if b < 0.0:
            b = 0.0
            denom = float(np.dot(xa, xa))
            a = max(0.0, float(np.dot(xa, y)) / denom) if denom else 0.0
    return a, b


def fit_constants(
    observations,
    template: CostParams,
) -> FitResult:
    """Recover the machine constants ``a, b, c, θ`` by least squares.

    ``observations`` is a sequence of :class:`PhaseObservation` (items
    with a ``timeline`` attribute — e.g. ``SimReport`` — are reduced via
    :func:`observation_from_sim_report` first).  ``template`` supplies
    the problem constants (grid, members, halos, ``h``); its machine
    constants are replaced by the fitted values.  Fitting is done against
    the *unit-constant* model, so each phase's regression is exact
    whenever the closed form matches the machine's behaviour up to the
    constant — the residual diagnostics quantify everything it doesn't
    capture (contention, seeks, acks).

    The fitted params carry ``read_inflation=1.0``: constants price the
    fault-free machine; a fault regime is layered back on via
    :func:`~repro.costmodel.model.expected_read_inflation`.
    """
    import numpy as np

    obs = [
        observation_from_sim_report(o) if hasattr(o, "timeline") else o
        for o in observations
    ]
    if not obs:
        raise ValueError("fit_constants needs at least one observation")

    unit = template.with_(a=1.0, b=1.0, c=1.0, theta=1.0, read_inflation=1.0)

    x_theta, y_read = [], []
    x_a, x_b, y_comm = [], [], []
    x_c, y_comp = [], []
    for o in obs:
        x_theta.append(
            t_read(unit, n_sdy=o.n_sdy, n_layers=o.n_layers, n_cg=o.n_cg)
        )
        y_read.append(o.read_seconds)
        x_a.append(
            t_comm(
                unit.with_(b=0.0),
                n_sdx=o.n_sdx, n_sdy=o.n_sdy,
                n_layers=o.n_layers, n_cg=o.n_cg,
            )
        )
        x_b.append(
            t_comm(
                unit.with_(a=0.0),
                n_sdx=o.n_sdx, n_sdy=o.n_sdy,
                n_layers=o.n_layers, n_cg=o.n_cg,
            )
        )
        y_comm.append(o.comm_seconds)
        x_c.append(t_comp(unit, n_sdx=o.n_sdx, n_sdy=o.n_sdy, n_layers=o.n_layers))
        y_comp.append(o.comp_seconds)

    def _ratio_fit(x: list[float], y: list[float]) -> float:
        denom = float(np.dot(x, x))
        return max(0.0, float(np.dot(x, y)) / denom) if denom else 0.0

    theta = _ratio_fit(x_theta, y_read)
    a, b = _nonneg_lstsq_2(x_a, x_b, y_comm)
    c = _ratio_fit(x_c, y_comp)

    params = template.with_(a=a, b=b, c=c, theta=theta, read_inflation=1.0)
    residuals = {
        "read": PhaseFit(
            measured=tuple(y_read),
            fitted=tuple(theta * x for x in x_theta),
        ),
        "comm": PhaseFit(
            measured=tuple(y_comm),
            fitted=tuple(a * xa + b * xb for xa, xb in zip(x_a, x_b)),
        ),
        "comp": PhaseFit(
            measured=tuple(y_comp),
            fitted=tuple(c * x for x in x_c),
        ),
    }
    return FitResult(params=params, n_observations=len(obs), residuals=residuals)
