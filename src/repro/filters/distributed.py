"""Shared inline engine for the domain-decomposed filters.

All three parallel filters compute the *same* local analyses (Eq. 6 with
modified-Cholesky precision estimates) — they differ in how data reaches
the processors.  ``DistributedEnKF`` is that common numerical engine; the
subclasses add their reading strategy for the simulated path and, for
S-EnKF, the multi-stage (layered) analysis schedule.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.domain import Decomposition, SubDomain
from repro.core.inflation import inflate
from repro.core.observations import ObservationNetwork, perturb_observations
from repro.faults.report import DegradedResult
from repro.parallel.executor import AnalysisExecutor, AnalysisPlan, serial_executor
from repro.parallel.geometry import GeometryCache
from repro.parallel.worker import KIND_ENKF
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer
from repro.util.seeding import spawn_rng
from repro.util.validation import check_positive


class DistributedEnKF:
    """Domain-decomposed stochastic EnKF (numerics shared by L/P/S-EnKF).

    The observed pieces are analysed by the batched engine
    (:mod:`repro.parallel.vectorized`): structurally equal pieces are
    stacked, their modified-Cholesky ``B̂⁻¹`` assembled as one band and
    solved with one banded ``pbsv`` per run through
    :func:`repro.core.analysis.analysis_modified_cholesky`.

    Parameters
    ----------
    radius_km:
        Localization radius for the modified-Cholesky conditioning.
    inflation:
        Multiplicative inflation applied to the background ensemble.
    ridge:
        Regularisation of the per-variable regressions (see
        :func:`repro.core.cholesky.modified_cholesky_inverse`).
    executor:
        An :class:`~repro.parallel.executor.AnalysisExecutor` to fan the
        local analyses across; the caller keeps ownership (and closes
        it).  Default: the shared one-worker executor — identical
        numerics (results are bit-identical at any width), no pool.
    workers:
        Convenience alternative to ``executor``: the filter builds and
        *owns* an executor of this width (release it with
        :meth:`close`).  Mutually exclusive with ``executor``.
    strategy:
        ``"auto"`` (an owned executor of ``workers`` width) or
        ``"serial"`` (an owned one-worker executor; ``workers`` must then
        be ``None`` or 1); any other value raises ``ValueError``.
        Mutually exclusive with ``executor``.  Default ``None`` is
        ``"auto"``.
    geometry_cache:
        A :class:`~repro.parallel.geometry.GeometryCache` to share across
        filters; the filter builds its own when omitted.
    """

    name = "distributed-enkf"

    def __init__(
        self,
        radius_km: float,
        inflation: float = 1.0,
        ridge: float = 1e-8,
        executor: AnalysisExecutor | None = None,
        workers: int | None = None,
        strategy: str | None = None,
        geometry_cache: GeometryCache | None = None,
    ):
        check_positive("radius_km", radius_km)
        check_positive("inflation", inflation)
        self.radius_km = float(radius_km)
        self.inflation = float(inflation)
        self.ridge = float(ridge)
        if strategy not in (None, "auto", "serial"):
            raise ValueError(
                f"unknown strategy {strategy!r}; expected 'auto' "
                f"(workers wide) or 'serial' (one worker)"
            )
        if executor is not None and (workers is not None or strategy is not None):
            raise ValueError(
                "pass either executor or workers/strategy, not both"
            )
        if strategy == "serial":
            if workers not in (None, 1):
                raise ValueError(
                    f"strategy 'serial' is one worker, got workers={workers}"
                )
            workers = 1
        self._owns_executor = executor is None and (
            workers is not None or strategy is not None
        )
        self.executor = (
            AnalysisExecutor(workers=workers) if self._owns_executor
            else executor
        )
        self.geometry = (
            geometry_cache if geometry_cache is not None else GeometryCache()
        )

    def close(self) -> None:
        """Release the executor this filter owns (no-op otherwise)."""
        if self._owns_executor and self.executor is not None:
            self.executor.close()
            self.executor = None
            self._owns_executor = False

    def _executor(self) -> AnalysisExecutor:
        return self.executor if self.executor is not None else serial_executor()

    def _plan_pieces(self, decomp: Decomposition) -> list[SubDomain]:
        """The full analysis work-list, in execution order."""
        return [piece for sd in decomp for piece in self._analysis_pieces(sd)]

    # -- inline execution -----------------------------------------------------
    def assimilate(
        self,
        decomp: Decomposition,
        states: np.ndarray,
        network: ObservationNetwork,
        y: np.ndarray,
        rng=None,
        inflation: float | None = None,
    ) -> np.ndarray:
        """Analyse the global ensemble through per-sub-domain local updates.

        Every sub-domain sees the *same* globally perturbed observations
        (a consistency requirement of domain decomposition).  All
        randomness is consumed here, before the fan-out, so the result is
        identical at every worker count.

        ``inflation`` overrides the configured multiplicative inflation
        for this one call (used by graceful degradation to apply its
        spread compensation without mutating — or copying — the filter,
        which must stay stateless for pool execution).
        """
        states = np.asarray(states, dtype=float)
        if states.shape[0] != decomp.grid.n:
            raise ValueError(
                f"ensemble has {states.shape[0]} components, grid has "
                f"{decomp.grid.n}"
            )
        effective_inflation = (
            self.inflation if inflation is None else float(inflation)
        )
        check_positive("inflation", effective_inflation)
        tracer = get_tracer()
        with tracer.span(
            "filter.assimilate",
            category="filter",
            filter=self.name,
            n_members=states.shape[1],
            n_subdomains=decomp.n_subdomains,
        ):
            rng = spawn_rng(rng)
            if effective_inflation != 1.0:
                states = inflate(states, effective_inflation)
            ys = perturb_observations(
                np.asarray(y, dtype=float),
                network.obs_error_std,
                states.shape[1],
                rng=rng,
            )
            analysed = np.empty_like(states)
            plan = AnalysisPlan(
                kind=KIND_ENKF,
                pieces=self._plan_pieces(decomp),
                states=states,
                obs=ys,
                out=analysed,
                network=network,
                params={"radius_km": self.radius_km, "ridge": self.ridge},
                cache=self.geometry,
            )
            n_local = self._executor().run(plan)
            if tracer.enabled:
                metrics = get_metrics()
                metrics.counter("filter.analyses").inc()
                metrics.counter("filter.local_analyses").inc(n_local)
                metrics.gauge("filter.inflation").set(effective_inflation)
        return analysed

    def assimilate_degraded(
        self,
        decomp: Decomposition,
        states: np.ndarray,
        network: ObservationNetwork,
        y: np.ndarray,
        dropped=(),
        rng=None,
    ) -> tuple[np.ndarray, DegradedResult]:
        """Analyse with surviving members only (graceful degradation).

        When member reads prove unrecoverable, the filter proceeds with the
        ``M = N - k`` surviving columns and compensates the lost spread with
        extra multiplicative inflation ``sqrt((N-1)/(M-1))`` — the factor
        that restores the expected sample variance of an ``N``-member
        ensemble.  The analysis is *literally* a clean ``M``-member run with
        ``inflation * compensation``: the returned columns are bit-identical
        to ``assimilate`` on ``states[:, surviving]`` under that inflation,
        which is what the resilience tests pin down.  The compensation is
        passed as :meth:`assimilate`'s per-call ``inflation`` override —
        the filter itself is never mutated or copied, so a degraded
        analysis is safe while the same engine serves a worker pool.

        Returns ``(analysed, result)``: the ``(n, M)`` analysis over the
        surviving columns (in member order) and the :class:`DegradedResult`
        naming survivors, dropped members and the compensation applied.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim != 2:
            raise ValueError(f"ensemble must be 2-D, got shape {states.shape}")
        n_total = states.shape[1]
        dropped = tuple(sorted({int(k) for k in dropped}))
        for k in dropped:
            if not 0 <= k < n_total:
                raise ValueError(
                    f"dropped member {k} out of range [0, {n_total})"
                )
        surviving = tuple(k for k in range(n_total) if k not in dropped)
        if len(surviving) < 2:
            raise ValueError(
                f"cannot analyse with {len(surviving)} surviving member(s); "
                f"an ensemble needs at least 2"
            )
        if not dropped:
            analysed = self.assimilate(decomp, states, network, y, rng=rng)
            return analysed, DegradedResult(
                n_requested=n_total, surviving=surviving, dropped=()
            )
        tracer = get_tracer()
        compensation = math.sqrt((n_total - 1) / (len(surviving) - 1))
        with tracer.span(
            "filter.assimilate_degraded",
            category="filter",
            filter=self.name,
            n_dropped=len(dropped),
            compensation=compensation,
        ):
            analysed = self.assimilate(
                decomp, states[:, surviving], network, y, rng=rng,
                inflation=self.inflation * compensation,
            )
        if tracer.enabled:
            metrics = get_metrics()
            metrics.counter("filter.degraded_analyses").inc()
            metrics.counter("filter.members_dropped").inc(len(dropped))
            metrics.gauge("filter.last_compensation").set(compensation)
        return analysed, DegradedResult(
            n_requested=n_total,
            surviving=surviving,
            dropped=dropped,
            compensation=compensation,
        )

    def _analysis_pieces(self, sd: SubDomain):
        """The units of local analysis within one sub-domain.

        The base engine analyses whole sub-domains; S-EnKF overrides this
        with the L-layer multi-stage split.
        """
        yield sd
