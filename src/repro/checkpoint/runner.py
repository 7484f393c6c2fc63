"""Durable multi-cycle campaigns: checkpoint every ``k`` cycles, resume after a crash.

:class:`CampaignRunner` wraps a :class:`~repro.models.twin.TwinExperiment`
(and therefore any assimilation callable, including the
domain-decomposed :class:`~repro.filters.distributed.DistributedEnKF`
family) and drives its resumable stepping API:

* ``run(truth0, ensemble0, n_cycles)`` cycles from scratch, committing a
  checkpoint through :class:`~repro.checkpoint.store.CheckpointStore`
  every ``interval`` cycles and at the final cycle;
* ``resume(n_cycles)`` finds the newest checkpoint that verifies,
  restores the :class:`~repro.models.twin.CampaignState`, fast-forwards
  the cycle-seed stream past the completed cycles and continues.

Determinism contract (test-pinned): *crash at any point — between
cycles or mid-checkpoint-write — followed by* ``resume()`` *yields a
final analysis ensemble bit-identical to the uninterrupted run*, with or
without an active :class:`~repro.faults.schedule.FaultSchedule`.  The
three ingredients: per-cycle RNG seeds are a pure function of
``(master_seed, cycle index)`` via the replayed root stream; the fault
schedule is a pure function of ``(seed, site)`` and is persisted in the
manifest (resuming under a different schedule is a typed error); and the
ensemble/truth/free arrays round-trip losslessly as raw float64.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.checkpoint.errors import (
    CheckpointError,
    NoCheckpointError,
    ScheduleMismatchError,
)
from repro.checkpoint.store import Checkpoint, CheckpointStore, RetentionPolicy
from repro.data.store import EnsembleStore
from repro.faults.errors import FaultError
from repro.faults.policy import RetryPolicy
from repro.faults.report import ResilienceReport
from repro.faults.schedule import FaultSchedule
from repro.models.twin import CampaignState, TwinExperiment, TwinResult
from repro.telemetry.metrics import get_metrics
from repro.telemetry.report import RunReport
from repro.telemetry.tracer import Tracer, get_tracer, use_thread_tracer
from repro.util.validation import check_nonnegative, check_positive

__all__ = [
    "CampaignRunner",
    "RESTARTABLE_ERRORS",
    "SimulatedCrash",
    "SupervisionReport",
]

_DIAGNOSTIC_SERIES = ("background_rmse", "analysis_rmse", "free_rmse", "spread")


class SimulatedCrash(RuntimeError):
    """Raised by kill hooks to take a campaign down mid-flight (demos/tests)."""


#: what :meth:`CampaignRunner.supervise` treats as survivable: simulated
#: crashes, checkpoint damage (quarantined and failed over by the store),
#: injected fault errors and plain I/O trouble.  Programming errors
#: (TypeError, ValueError, ...) stay fatal — restarting cannot fix them.
RESTARTABLE_ERRORS: tuple[type[BaseException], ...] = (
    SimulatedCrash,
    CheckpointError,
    FaultError,
    OSError,
)


@dataclass
class SupervisionReport:
    """One supervised campaign's recovery rollup (embedded in RunReport)."""

    max_restarts: int = 0
    restarts: int = 0
    restart_errors: list[str] = field(default_factory=list)
    backoff_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def recovery_fraction(self) -> float:
        """Restart backoff relative to total wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.backoff_seconds / self.wall_seconds

    def to_dict(self) -> dict:
        return {**asdict(self), "recovery_fraction": self.recovery_fraction}


class CampaignRunner:
    """Checkpointed driver for a cycling twin experiment.

    Parameters
    ----------
    experiment:
        The cycling harness; its ``master_seed`` seeds the replayable
        per-cycle RNG stream.
    directory:
        Campaign checkpoint root (one campaign per directory).
    interval:
        Commit a checkpoint every this many completed cycles (the final
        cycle is always committed so a finished campaign is inspectable).
    retention:
        Passed to the :class:`CheckpointStore`; ``None`` keeps everything.
    faults:
        Optional chaos regime.  Checkpoint reads *and* writes then run
        through a :class:`~repro.faults.store.FaultyStore` under this
        schedule, and the schedule is recorded in every manifest so
        ``resume`` can verify it replays the same regime.
    retry:
        Transient-fault policy for checkpoint I/O.
    config:
        Free-form provenance recorded in each manifest (filter settings,
        experiment name, ...).
    tracer:
        Optional :class:`~repro.telemetry.tracer.Tracer`.  When given it
        is installed as the *calling thread's* tracer for the duration
        of ``run``/``resume`` so every instrumented layer underneath
        (stores, filters, fault retries, checkpoint commits) records
        into one capture — and campaigns driven from other threads
        keep theirs separate; when omitted the ambient tracer (null by
        default) applies.
    """

    def __init__(
        self,
        experiment: TwinExperiment,
        directory: str | Path,
        *,
        interval: int = 1,
        retention: RetentionPolicy | None = None,
        faults: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        config: dict | None = None,
        tracer: Tracer | None = None,
    ):
        check_positive("interval", interval)
        self.experiment = experiment
        self.interval = int(interval)
        self.faults = faults
        self.config = dict(config or {})
        self.tracer = tracer
        self.report = ResilienceReport()
        #: filled by :meth:`supervise`; embedded in :meth:`run_report`
        self.supervision: SupervisionReport | None = None
        store_factory = None
        if faults is not None and not faults.is_null:
            from repro.faults.store import FaultyStore

            def store_factory(d, g):
                return FaultyStore(EnsembleStore(d, g), faults, self.report)

        self.store = CheckpointStore(
            directory,
            retry=retry,
            retention=retention,
            store_factory=store_factory,
        )

    # -- fresh and resumed drives -------------------------------------------
    def run(
        self,
        truth0: np.ndarray,
        ensemble0: np.ndarray,
        n_cycles: int,
        track_free_run: bool = True,
        on_cycle: Callable[[CampaignState], None] | None = None,
    ) -> TwinResult:
        """Run a fresh campaign with periodic checkpoints."""
        check_positive("n_cycles", n_cycles)
        state = self.experiment.initial_state(truth0, ensemble0, track_free_run)
        return self._drive(state, n_cycles, on_cycle)

    def resume(
        self,
        n_cycles: int,
        on_cycle: Callable[[CampaignState], None] | None = None,
    ) -> TwinResult:
        """Continue from the newest verifiable checkpoint up to ``n_cycles``.

        Completed cycles are *skipped*, not recomputed: only the seeds of
        the finished cycles are burned from the root RNG stream, which is
        what makes the continuation bit-identical to a run that never
        crashed.
        """
        check_positive("n_cycles", n_cycles)
        with use_thread_tracer(self.tracer):
            state = self.restore(self.store.load_best())
        return self._drive(state, n_cycles, on_cycle)

    def run_or_resume(
        self,
        truth0: np.ndarray,
        ensemble0: np.ndarray,
        n_cycles: int,
        track_free_run: bool = True,
        on_cycle: Callable[[CampaignState], None] | None = None,
    ) -> TwinResult:
        """Resume when any checkpoint verifies, else start fresh."""
        try:
            return self.resume(n_cycles, on_cycle=on_cycle)
        except NoCheckpointError:
            return self.run(
                truth0, ensemble0, n_cycles, track_free_run, on_cycle=on_cycle
            )

    def supervise(
        self,
        truth0: np.ndarray,
        ensemble0: np.ndarray,
        n_cycles: int,
        *,
        max_restarts: int = 3,
        backoff: RetryPolicy | None = None,
        restartable: tuple[type[BaseException], ...] = RESTARTABLE_ERRORS,
        track_free_run: bool = True,
        on_cycle: Callable[[CampaignState], None] | None = None,
        on_restart: Callable[[int, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> TwinResult:
        """Run the campaign to completion, auto-restarting on crashes.

        The supervised loop is ``run_or_resume`` under a restart budget:
        every :data:`RESTARTABLE_ERRORS` failure — a
        :class:`SimulatedCrash`, a corrupt newest checkpoint (quarantined
        by ``load_best``, which then falls back an interval), an injected
        fault that escaped the retries — burns one restart, waits out a
        deterministic exponential backoff (``backoff``, default
        ``RetryPolicy(max_retries=max_restarts)`` with wall-clock delays)
        and resumes from the newest checkpoint that verifies.  Because
        resume is bit-identical to an uninterrupted run, the *final
        ensemble does not depend on how many times the campaign died*.

        When the budget is exhausted the last error is re-raised; the
        :class:`SupervisionReport` built along the way (restarts, their
        errors, backoff and wall time) is kept on :attr:`supervision`
        either way and embedded into :meth:`run_report`.

        ``on_restart(restart_index, error)`` is called before each
        restart; ``sleep`` is injectable so tests pace at zero cost.
        """
        check_positive("n_cycles", n_cycles)
        check_nonnegative("max_restarts", max_restarts)
        if backoff is None:
            backoff = RetryPolicy(
                max_retries=max_restarts, base_delay=0.05, max_delay=2.0
            )
        tracer = self.tracer if self.tracer is not None else get_tracer()
        metrics = get_metrics()
        t0 = time.perf_counter()
        restarts = 0
        errors: list[str] = []
        backoff_seconds = 0.0

        def build_report() -> SupervisionReport:
            return SupervisionReport(
                max_restarts=max_restarts,
                restarts=restarts,
                restart_errors=errors,
                backoff_seconds=backoff_seconds,
                wall_seconds=time.perf_counter() - t0,
            )

        while True:
            try:
                result = self.run_or_resume(
                    truth0, ensemble0, n_cycles, track_free_run,
                    on_cycle=on_cycle,
                )
            except restartable as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                if restarts >= max_restarts:
                    self.supervision = build_report()
                    raise
                restarts += 1
                metrics.counter("supervise.restart").inc()
                if tracer.enabled:
                    tracer.event(
                        "supervise.restart", category="recovery",
                        restart=restarts, error=type(exc).__name__,
                    )
                if on_restart is not None:
                    on_restart(restarts, exc)
                delay = backoff.delay(restarts - 1)
                if delay > 0.0:
                    backoff_seconds += delay
                    sleep(delay)
            else:
                self.supervision = build_report()
                return result

    def _drive(
        self,
        state: CampaignState,
        n_cycles: int,
        on_cycle: Callable[[CampaignState], None] | None,
    ) -> TwinResult:
        # Thread-scoped install: campaigns driven from concurrent threads
        # each keep their own capture instead of clobbering the
        # process-global slot.
        with use_thread_tracer(self.tracer), self._graceful_sigterm():
            tracer = get_tracer()
            try:
                with tracer.span(
                    "campaign.drive", category="cycle",
                    from_cycle=state.cycle, n_cycles=n_cycles,
                ):
                    seeds = self.experiment.cycle_seeds(skip=state.cycle)
                    while state.cycle < n_cycles:
                        self.experiment.run_cycle(state, next(seeds))
                        if (
                            state.cycle % self.interval == 0
                            or state.cycle == n_cycles
                        ):
                            self.checkpoint(state)
                        if on_cycle is not None:
                            on_cycle(state)
            except KeyboardInterrupt:
                self.drain(state)
                raise
        return state.result

    @contextmanager
    def _graceful_sigterm(self):
        """Convert SIGTERM into ``KeyboardInterrupt`` while driving, so a
        ``kill`` gets the same graceful drain as a Ctrl-C.  Signal
        handlers are a main-thread privilege — a campaign driven from
        another thread skips the install and is stopped by its caller."""
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = signal.getsignal(signal.SIGTERM)

        def _to_interrupt(signum, frame):
            raise KeyboardInterrupt("SIGTERM")

        signal.signal(signal.SIGTERM, _to_interrupt)
        try:
            yield
        finally:
            signal.signal(signal.SIGTERM, previous)

    def drain(self, state: CampaignState) -> None:
        """Best-effort final checkpoint of the *completed* cycles.

        Called when an interrupt lands mid-campaign: a partially run
        cycle may have appended some (not all) of its diagnostics, so
        each series is truncated back to ``state.cycle`` entries before
        the commit — the checkpoint then describes exactly the completed
        prefix, and ``resume`` continues bit-identically.  Checkpoint
        failures are swallowed: the campaign is dying of the interrupt,
        an older committed checkpoint is still a valid resume point, and
        masking the interrupt with an I/O error would lose the cause.
        """
        for name in _DIAGNOSTIC_SERIES:
            series = getattr(state.result, name)
            del series[state.cycle:]
        try:
            self.checkpoint(state)
        except Exception:
            pass

    # -- state <-> checkpoint mapping ---------------------------------------
    def checkpoint(self, state: CampaignState) -> Path:
        """Commit the current campaign state as one checkpoint."""
        aux = {"truth": state.truth}
        if state.free is not None:
            aux["free"] = state.free
        diagnostics = {
            name: list(getattr(state.result, name))
            for name in _DIAGNOSTIC_SERIES
        }
        return self.store.save(
            state.cycle,
            state.states,
            aux=aux,
            master_seed=self.experiment.master_seed,
            faults=self.faults.to_dict() if self.faults is not None else None,
            config=self.config,
            diagnostics=diagnostics,
        )

    def restore(self, checkpoint: Checkpoint) -> CampaignState:
        """Rebuild the in-memory campaign state from a loaded checkpoint."""
        manifest = checkpoint.manifest
        if manifest.master_seed != self.experiment.master_seed:
            raise ScheduleMismatchError(
                f"checkpoint was cut under master_seed "
                f"{manifest.master_seed}, runner has "
                f"{self.experiment.master_seed}"
            )
        self._check_schedule(manifest.faults)
        diagnostics = manifest.diagnostics or {}
        result = TwinResult(
            **{
                name: list(diagnostics.get(name, ()))
                for name in _DIAGNOSTIC_SERIES
            }
        )
        return CampaignState(
            cycle=checkpoint.cycle,
            truth=checkpoint.aux["truth"],
            states=checkpoint.ensemble,
            free=checkpoint.aux.get("free"),
            result=result,
        )

    # -- telemetry artifact ---------------------------------------------------
    def run_report(
        self,
        result: TwinResult | None = None,
        notes: list[str] | None = None,
        profile: dict | None = None,
    ) -> RunReport:
        """Roll the campaign's telemetry into a versioned :class:`RunReport`.

        Combines the runner's provenance (config, seeds, fault-schedule
        fingerprint), the :class:`ResilienceReport` counters, the
        per-cycle diagnostic series of ``result`` (when given), the
        active capture's per-category phase totals and the global
        metrics snapshot.  Call after ``run``/``resume`` with the same
        tracer still installed (or injected via ``tracer=``).
        ``profile`` attaches a resource-observatory slice (a
        ``senkf-profile/2`` payload from
        :func:`~repro.telemetry.memprof.build_profile_report`).
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        seeds: dict = {"master_seed": self.experiment.master_seed}
        if self.faults is not None:
            seeds["fault_seed"] = self.faults.seed
            seeds["fault_fingerprint"] = self.faults.fingerprint(64)
        diagnostics: dict[str, list[float]] = {}
        n_cycles = 0
        if result is not None:
            n_cycles = result.n_cycles
            for name in _DIAGNOSTIC_SERIES:
                series = list(getattr(result, name))
                if series:
                    diagnostics[name] = [float(v) for v in series]
        probe = getattr(self.experiment, "health", None)
        health = None
        if probe is not None and probe.engine.evaluations:
            health = probe.report(kind="filter").to_dict()
        return RunReport(
            kind="twin-campaign",
            config=dict(self.config),
            seeds=seeds,
            n_cycles=n_cycles,
            fault_counts=self.report.summary(),
            phase_totals=(
                tracer.phase_totals() if tracer.enabled else {}
            ),
            metrics=get_metrics().snapshot() if tracer.enabled else {},
            diagnostics=diagnostics,
            supervision=(
                self.supervision.to_dict()
                if self.supervision is not None else None
            ),
            health=health,
            profile=profile,
            notes=list(notes or []),
        )

    def _check_schedule(self, recorded: dict | None) -> None:
        """The resumed chaos regime must be the interrupted run's, exactly."""
        if recorded is None and self.faults is None:
            return
        if recorded is None or self.faults is None:
            raise ScheduleMismatchError(
                "manifest records "
                + ("no fault schedule" if recorded is None else "a fault schedule")
                + " but the runner was built with "
                + ("one" if self.faults is not None else "none")
            )
        manifest_schedule = FaultSchedule.from_dict(recorded)
        if manifest_schedule != self.faults:
            raise ScheduleMismatchError(
                "manifest fault schedule differs from the runner's "
                f"(manifest fingerprint {manifest_schedule.fingerprint(64)}, "
                f"runner {self.faults.fingerprint(64)})"
            )
