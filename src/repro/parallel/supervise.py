"""Supervision policies and recovery accounting for the parallel engine.

The real process pool of :class:`~repro.parallel.executor.AnalysisExecutor`
runs on machines where workers die (``BrokenProcessPool``) and wedge
(a future that never completes).  This module holds the *policy* side of
surviving that:

* :class:`DeadlinePolicy` — per-chunk completion deadlines.  The deadline
  is ``slack x (per-piece estimate) x (pieces in flight)`` with a hard
  floor, where the estimate prefers wall-clock measurements of completed
  pieces (EWMA, kept by the executor) and falls back to a cost-model
  prediction (:func:`piece_seconds_from_cost_model`, Eq. 9's ``T_comp``)
  for the cold start.  Before any estimate exists the floor alone
  applies, so a wedged *first* chunk is still detected.
* :class:`SupervisionPolicy` — how hard to fight: the piece-level
  :class:`~repro.faults.policy.RetryPolicy` (seeded exponential backoff,
  no jitter), the bounded pool-respawn budget, and the deadline policy.
* :class:`SupervisionStats` — the executor's mutable recovery counters
  (crashes seen, deadlines hit, pieces retried, pools respawned, pieces
  degraded to the serial path, recovery wall-seconds).
* :class:`SupervisionReport` — the campaign-level rollup
  :meth:`~repro.checkpoint.runner.CampaignRunner.supervise` embeds into
  its :class:`~repro.telemetry.report.RunReport`: restarts, respawns,
  retries, degraded strategies and the recovery fraction of wall time.

Determinism note: supervision never touches the numerics.  A retried or
serially-recovered piece recomputes :func:`~repro.parallel.worker
.compute_piece` on the *same* inputs and writes the *same* interior rows,
so a supervised analysis is bit-identical to the serial reference no
matter which workers died along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.policy import RetryPolicy
from repro.util.validation import check_nonnegative

__all__ = [
    "DeadlinePolicy",
    "SupervisionPolicy",
    "SupervisionReport",
    "SupervisionStats",
    "piece_seconds_from_cost_model",
]


def piece_seconds_from_cost_model(
    params, n_sdx: int, n_sdy: int, n_layers: int
) -> float:
    """Predicted per-piece compute seconds from Eq. (9).

    ``T_comp`` is the local analysis of one layer of one sub-domain —
    exactly one executor piece — so it doubles as the deadline policy's
    cold-start estimate when a calibrated
    :class:`~repro.costmodel.model.CostParams` is at hand.
    """
    from repro.costmodel.model import t_comp

    return float(t_comp(params, n_sdx, n_sdy, n_layers))


@dataclass(frozen=True)
class DeadlinePolicy:
    """Completion deadline for a set of in-flight pieces.

    ``deadline = max(floor_seconds, slack * estimate * n_pieces)`` where
    the estimate is the observed per-piece seconds when available, else
    ``predicted_piece_seconds`` (cost-model cold start), else nothing —
    leaving the floor as the only bound.  The floor therefore plays two
    roles: it absorbs prediction error on fast pieces (no false kills)
    and it bounds how long a wedged cold-start chunk can stall the run.
    """

    slack: float = 8.0
    floor_seconds: float = 30.0
    predicted_piece_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.slack < 1.0:
            raise ValueError(f"slack must be >= 1, got {self.slack}")
        if self.floor_seconds <= 0.0:
            raise ValueError(
                f"floor_seconds must be > 0, got {self.floor_seconds}"
            )
        if (
            self.predicted_piece_seconds is not None
            and self.predicted_piece_seconds <= 0.0
        ):
            raise ValueError(
                "predicted_piece_seconds must be > 0 or None, got "
                f"{self.predicted_piece_seconds}"
            )

    def deadline(
        self, n_pieces: int, observed_piece_seconds: float | None = None
    ) -> float:
        """Seconds allowed for ``n_pieces`` concurrently in-flight pieces."""
        estimate = self.predicted_piece_seconds
        if observed_piece_seconds is not None and observed_piece_seconds > 0.0:
            estimate = observed_piece_seconds
        if estimate is None:
            return self.floor_seconds
        return max(self.floor_seconds, self.slack * estimate * max(1, n_pieces))


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the executor fights worker failures (see module docstring).

    ``max_respawns`` bounds pool teardown+respawn cycles *per executor
    call*; once exhausted every unfinished piece falls back to the
    in-process serial path (always correct, never fast).  ``retry``
    bounds per-piece resubmissions — a piece that failed more than
    ``retry.max_retries`` times goes serial without waiting for the
    respawn budget.  Backoff delays between respawns come from the same
    policy (deterministic, no jitter) and are slept on the wall clock.
    """

    max_respawns: int = 2
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_retries=2))
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)

    def __post_init__(self) -> None:
        check_nonnegative("max_respawns", self.max_respawns)


@dataclass
class SupervisionStats:
    """Mutable recovery counters one executor accumulates across calls."""

    worker_crashes: int = 0
    deadline_hits: int = 0
    piece_retries: int = 0
    pool_respawns: int = 0
    serial_fallback_pieces: int = 0
    plan_degrades: int = 0
    recovery_seconds: float = 0.0

    def reset(self) -> None:
        for name in (
            "worker_crashes", "deadline_hits", "piece_retries",
            "pool_respawns", "serial_fallback_pieces", "plan_degrades",
        ):
            setattr(self, name, 0)
        self.recovery_seconds = 0.0

    def to_dict(self) -> dict:
        return {
            "worker_crashes": self.worker_crashes,
            "deadline_hits": self.deadline_hits,
            "piece_retries": self.piece_retries,
            "pool_respawns": self.pool_respawns,
            "serial_fallback_pieces": self.serial_fallback_pieces,
            "plan_degrades": self.plan_degrades,
            "recovery_seconds": self.recovery_seconds,
        }


#: metrics-registry counters the campaign supervisor rolls into its report
#: (incremented *unconditionally* — recovery events are rare enough that
#: the telemetry-off fast path is unaffected, and the campaign supervisor
#: must see them even when no tracer is installed).
SUPERVISION_COUNTERS = (
    "parallel.worker_crash",
    "parallel.worker_deadline",
    "parallel.piece_retry",
    "parallel.pool_respawn",
    "parallel.serial_fallback",
    "parallel.degraded_serial",
    "supervise.restart",
)


@dataclass
class SupervisionReport:
    """One supervised campaign's recovery rollup (embedded in RunReport)."""

    max_restarts: int = 0
    restarts: int = 0
    restart_errors: list[str] = field(default_factory=list)
    backoff_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: executor-side counters, diffed off the global metrics registry
    worker_crashes: int = 0
    deadline_hits: int = 0
    piece_retries: int = 0
    pool_respawns: int = 0
    serial_fallback_pieces: int = 0
    plan_degrades: int = 0
    recovery_seconds: float = 0.0

    @property
    def recovery_fraction(self) -> float:
        """Recovery spend (respawns + backoff) relative to total wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return (self.recovery_seconds + self.backoff_seconds) / self.wall_seconds

    @property
    def degraded_strategies(self) -> int:
        """Analyses that abandoned the pool for the serial path."""
        return self.plan_degrades

    def to_dict(self) -> dict:
        return {
            "max_restarts": self.max_restarts,
            "restarts": self.restarts,
            "restart_errors": list(self.restart_errors),
            "backoff_seconds": self.backoff_seconds,
            "wall_seconds": self.wall_seconds,
            "worker_crashes": self.worker_crashes,
            "deadline_hits": self.deadline_hits,
            "piece_retries": self.piece_retries,
            "pool_respawns": self.pool_respawns,
            "serial_fallback_pieces": self.serial_fallback_pieces,
            "plan_degrades": self.plan_degrades,
            "recovery_seconds": self.recovery_seconds,
            "recovery_fraction": self.recovery_fraction,
        }

    @classmethod
    def from_counter_delta(
        cls, before: dict[str, float], after: dict[str, float], **kwargs
    ) -> "SupervisionReport":
        """Build from two ``{counter: value}`` snapshots of the registry."""

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        return cls(
            worker_crashes=int(delta("parallel.worker_crash")),
            deadline_hits=int(delta("parallel.worker_deadline")),
            piece_retries=int(delta("parallel.piece_retry")),
            pool_respawns=int(delta("parallel.pool_respawn")),
            serial_fallback_pieces=int(delta("parallel.serial_fallback")),
            plan_degrades=int(delta("parallel.degraded_serial")),
            recovery_seconds=delta("parallel.recovery_seconds"),
            **kwargs,
        )
