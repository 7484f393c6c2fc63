"""The parallel analysis engine: strategy-selected fan-out.

:class:`AnalysisExecutor` runs the per-piece local analyses of an
:class:`AnalysisPlan` under one of three strategies:

``serial``
    The in-process loop — exactly the classic engine, and the reference
    every other strategy is checked against.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` over
    shared-memory ensembles (:mod:`repro.parallel.shared`): workers map
    the background/observation/analysis arrays zero-copy, receive only
    piece descriptors + cached geometry, and write disjoint interior
    rows of the shared analysis array.
``vectorized``
    In-process batched kernels over structurally equal pieces
    (:mod:`repro.parallel.vectorized`).
``auto``
    Picks one of the above from the shape of the plan's *observed* work
    (see :meth:`resolve`).

Only observed pieces are work.  A piece whose expansion holds no
observation has the (inflated) background as its analysis, so
:meth:`AnalysisPlan.fill_unobserved` writes all of them in one bulk pass
and every strategy prepares, chunks, ships and counts the observed
pieces alone — by their plan indices, never re-numbered.

The paper's helper-thread overlap (Sec. 4.2) lives in the process
strategy's *submit-as-prepared* loop: the parent resolves each piece's
geometry — observation restriction, index arrays, modified-Cholesky
stencil — through the :class:`~repro.parallel.geometry.GeometryCache`
and submits a chunk the moment it fills, so workers compute chunk ``k``
while the parent prepares chunk ``k+1``.  With S-EnKF's layer-major
piece order this is "stage ``l+1``'s restriction prepared while stage
``l`` computes".  The executor starts no Python thread of its own, so
no thread of its making is alive when the pool forks its workers.

Determinism: serial and process call the same
:func:`~repro.parallel.worker.compute_piece` on the same inputs, pieces
own disjoint interior rows, and all randomness (observation
perturbation) is consumed *before* the plan is built — so their results
are bit-identical.  The vectorized strategy reorders BLAS reductions
and is held to rtol 1e-10 instead.

Supervision (``supervision=``): the process strategy can run under a
:class:`~repro.parallel.supervise.SupervisionPolicy`, which arms it
against real worker failures — a crashed worker (``BrokenProcessPool``)
or a wedged one (a round that blows its cost-model-derived deadline)
tears the pool down (hung workers are killed), respawns it within a
bounded budget, and resubmits the unfinished pieces with seeded
exponential backoff; pieces that exhaust their
:class:`~repro.faults.policy.RetryPolicy` — and, once the respawn budget
is spent, the whole remaining plan — fall back to the in-process serial
path.  Because recovery only ever *recomputes the same pieces on the
same inputs*, a supervised analysis completes bit-identically to the
serial reference whenever any single process can run it.  Without a
policy the same loop runs with no deadline and no recovery budget: the
first dead worker tears the pool down the same way and the
``BrokenProcessPool`` propagates.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from repro.core.backend import ArrayBackend, get_backend
from repro.core.inflation import inflate
from repro.parallel.geometry import GeometryCache, PieceGeometry
from repro.parallel.shared import SharedEnsemble
from repro.parallel.supervise import SupervisionPolicy, SupervisionStats
from repro.parallel.vectorized import run_vectorized
from repro.parallel.worker import KIND_ENKF, KIND_ETKF, compute_piece, run_chunk
from repro.telemetry.metrics import get_metrics
from repro.telemetry.profiler import get_profiler
from repro.telemetry.tracer import get_tracer

__all__ = ["AnalysisExecutor", "AnalysisPlan", "serial_executor"]

STRATEGIES = ("auto", "serial", "process", "vectorized")

#: auto-strategy ceiling on the plan's total expansion points: below it
#: pool dispatch + shared-memory setup cost more than fan-out wins back.
_SERIAL_POINTS_CEILING = 8_192

#: process-strategy load balance: pieces go out in ``workers x this``
#: chunks so a straggler chunk cannot serialise the tail.
_CHUNKS_PER_WORKER = 2

#: auto-strategy thresholds for the vectorized (batched-kernel) path: it
#: needs enough pieces for stacking to amortise, and small-enough mean
#: expansions that per-piece Python/BLAS-dispatch overhead — not the
#: solves themselves — dominates the fan-out strategy.  The win is
#: core-count independent, so this check runs before the worker check.
_VECTORIZED_MIN_PIECES = 16
_VECTORIZED_MEAN_POINTS_CEILING = 512


@dataclass
class AnalysisPlan:
    """One assimilation call's work-list, data and parameters.

    ``obs`` is the full observation payload (perturbed ``Yˢ`` for the
    EnKF kinds, plain ``y`` for the ETKF); ``params`` are the picklable
    scalars :func:`~repro.parallel.worker.compute_piece` needs; ``out``
    is filled in place (each piece owns its interior rows).
    """

    kind: str
    pieces: list
    states: np.ndarray
    obs: np.ndarray
    out: np.ndarray
    network: object
    params: dict
    cache: GeometryCache = field(default_factory=GeometryCache)

    @property
    def cache_radius(self) -> float | None:
        """Radius to key geometry on (the EnKF kinds cache the stencil)."""
        return self.params.get("radius_km") if self.kind == KIND_ENKF else None

    @cached_property
    def observed(self) -> tuple[int, ...]:
        """Plan indices of the pieces that see at least one observation
        (asked of the cache once per plan; no geometry is built)."""
        return self.cache.observed(self.network, self.pieces)

    def fill_unobserved(self) -> None:
        """Fill every observation-free piece at once.

        With no local observation the analysis is the background — as
        given for the EnKF kinds (``states`` already carries the
        inflation), inflated row-wise for the ETKF — so one contiguous
        pass writes all of ``out`` and the observed pieces then overwrite
        their interiors.  A plan with no unobserved piece fills nothing.
        """
        if len(self.observed) < len(self.pieces):
            inflation = (
                self.params["inflation"] if self.kind == KIND_ETKF else 1.0
            )
            if inflation != 1.0:
                inflate(self.states, inflation, out=self.out)
            else:
                np.copyto(self.out, self.states)

    def prepare(self, index: int) -> tuple[int, object, PieceGeometry]:
        """Resolve one piece's geometry (cached)."""
        piece = self.pieces[index]
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "parallel.prepare", category="parallel", piece=index
            ) as span:
                geometry, cached = self.cache.get(
                    self.network, piece, self.cache_radius
                )
                span.set(cached=cached)
        else:
            geometry, _ = self.cache.get(self.network, piece, self.cache_radius)
        return index, piece, geometry


class AnalysisExecutor:
    """Persistent-pool executor for inline local analyses.

    Parameters
    ----------
    strategy:
        ``auto`` (default), ``serial``, ``process`` or ``vectorized``.
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  Capped by the
        plan's observed piece count at run time.
    supervision:
        A :class:`~repro.parallel.supervise.SupervisionPolicy` arming the
        process strategy against worker crashes and hangs (see module
        docstring); ``None`` (default) runs without deadline or recovery
        budget, so a dead worker aborts the analysis.
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` whose
        *worker* knobs (``worker_crash_rate`` / ``worker_hang_rate``)
        are injected into real pool workers — chaos tests exercise the
        actual recovery machinery.  Other fault classes are ignored
        here; the serial fallback path is deliberately injection-free
        (it is the recovery target).
    backend:
        Array backend for the vectorized strategy: an
        :class:`~repro.core.backend.ArrayBackend`, a backend name
        (``"numpy"``/``"jax"``/``"cupy"``/``"auto"``) or ``None`` for
        the default resolution (``SENKF_BACKEND`` env var, else NumPy).
        Resolved lazily on the first vectorized run, so constructing an
        executor never imports an optional package.
    """

    def __init__(
        self,
        strategy: str = "auto",
        workers: int | None = None,
        supervision: SupervisionPolicy | None = None,
        faults=None,
        backend: str | ArrayBackend | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.strategy = strategy
        self.workers = workers
        self.supervision = supervision
        self.faults = faults
        self.backend = backend
        self._backend_obj: ArrayBackend | None = (
            backend if isinstance(backend, ArrayBackend) else None
        )
        self.supervision_stats = SupervisionStats()
        self._lock = threading.Lock()
        self._process_pool: ProcessPoolExecutor | None = None
        self._process_pool_size = 0
        self._call_counter = itertools.count()
        self._closed = False

    # -- strategy selection ----------------------------------------------------
    def effective_workers(self, n_pieces: int) -> int:
        requested = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(int(requested), max(n_pieces, 1)))

    def resolve(self, plan: AnalysisPlan) -> str:
        """The concrete strategy this plan will run under.

        ``auto`` sizes the plan by its observed pieces — their count and
        their expansion points — since the rest is one bulk fill under
        any strategy: many small observed pieces batch (``vectorized``),
        fewer than two observed pieces or under ``8 192`` observed points
        stay in-process (``serial``), anything larger fans out
        (``process``).
        """
        if self.strategy != "auto":
            return self.strategy
        n_pieces = len(plan.observed)
        points = sum(plan.pieces[i].exp_size for i in plan.observed)
        # Batched kernels beat fan-out when many small pieces make the
        # per-piece dispatch overhead dominate — a core-count-independent
        # win, so it is tested before the worker-availability checks.
        if (
            plan.kind in (KIND_ENKF, KIND_ETKF)
            and n_pieces >= _VECTORIZED_MIN_PIECES
            and points <= n_pieces * _VECTORIZED_MEAN_POINTS_CEILING
        ):
            return "vectorized"
        if self.effective_workers(n_pieces) <= 1 or n_pieces < 2:
            return "serial"
        if points < _SERIAL_POINTS_CEILING:
            return "serial"
        return "process"

    def _resolve_backend(self) -> ArrayBackend:
        """The vectorized strategy's backend (resolved once, lazily)."""
        if self._backend_obj is None:
            name = self.backend if isinstance(self.backend, str) else None
            self._backend_obj = get_backend(name)
        return self._backend_obj

    # -- execution -------------------------------------------------------------
    def run(self, plan: AnalysisPlan) -> int:
        """Analyse every piece of ``plan`` into ``plan.out``; returns the
        number of local analyses performed."""
        if self._closed:
            raise ValueError("executor is closed")
        strategy = self.resolve(plan)
        n_pieces = len(plan.pieces)
        n_observed = len(plan.observed)
        workers = (
            self.effective_workers(n_observed) if strategy == "process" else 1
        )
        tracer = get_tracer()
        with tracer.span(
            "parallel.run",
            category="parallel",
            strategy=strategy,
            n_pieces=n_pieces,
            n_observed=n_observed,
            workers=workers,
        ):
            if strategy == "vectorized":
                # No workers to crash: supervision and a fault schedule's
                # worker knobs are inert under this strategy.
                run_vectorized(plan, backend=self._resolve_backend())
            else:
                plan.fill_unobserved()
                if strategy == "serial":
                    for i in plan.observed:
                        self._compute_into(plan, plan.prepare(i), plan.out)
                elif n_observed:  # nothing observed: no pool, no segment
                    self._run_process(plan, workers)
        if tracer.enabled:
            metrics = get_metrics()
            metrics.counter("parallel.runs").inc()
            metrics.counter("parallel.pieces").inc(n_pieces)
            metrics.counter("parallel.unobserved_pieces").inc(
                n_pieces - n_observed
            )
            metrics.gauge("parallel.workers").set(workers)
            if plan.cache is not None:
                metrics.gauge("geometry.cache_bytes").set(
                    float(plan.cache.nbytes())
                )
        return n_pieces

    @staticmethod
    def _compute_into(plan: AnalysisPlan, prepared, out) -> None:
        """One piece analysed in-process into ``out``: the serial loop's
        body and the supervised fallback (same inputs, same rows)."""
        index, piece, geometry = prepared
        with get_tracer().span(
            "parallel.local_analysis", category="parallel", piece=index
        ):
            out[geometry.interior_flat] = compute_piece(
                plan.kind, piece, plan.states[geometry.expansion_flat],
                plan.obs, geometry, plan.params,
            )

    # -- process pool ----------------------------------------------------------
    def _ensure_process_pool(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            if self._process_pool is None or self._process_pool_size < workers:
                if self._process_pool is not None:
                    self._process_pool.shutdown(wait=True)
                self._process_pool = ProcessPoolExecutor(max_workers=workers)
                self._process_pool_size = workers
            return self._process_pool

    def _teardown_process_pool(self, kill: bool = False) -> None:
        """Drop the persistent pool; ``kill`` SIGKILLs its workers first.

        ``shutdown(wait=True)`` on a pool with a hung worker would block
        forever, so every failure path kills the worker processes before
        joining — the management thread then observes the deaths, marks
        the pool broken and exits promptly.
        """
        with self._lock:
            pool, self._process_pool = self._process_pool, None
            self._process_pool_size = 0
        if pool is None:
            return
        if kill:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.kill()
                except Exception:  # already dead / not a Process
                    pass
        pool.shutdown(wait=True, cancel_futures=True)

    def _worker_faults_dict(self) -> dict | None:
        """The serialized schedule shipped to workers, or None when clean."""
        if self.faults is not None and getattr(
            self.faults, "has_worker_faults", False
        ):
            return self.faults.to_dict()
        return None

    def _ctx_bytes(self, plan: AnalysisPlan, shm_states, shm_obs, shm_out,
                   tracer) -> bytes:
        """One pickled worker context per executor call."""
        return pickle.dumps(
            {
                "kind": plan.kind,
                "params": plan.params,
                "trace": bool(tracer.enabled),
                # sampling interval for the in-worker profiler, or None;
                # workers only sample while profiling is on in the parent.
                "profile": (
                    get_profiler().interval if get_profiler().enabled
                    else None
                ),
                "states": asdict(shm_states.spec),
                "obs": asdict(shm_obs.spec),
                "out": asdict(shm_out.spec),
                "faults": self._worker_faults_dict(),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _run_process(self, plan: AnalysisPlan, workers: int) -> None:
        """Process fan-out in rounds; survives worker failures when supervised.

        Each round submits every unfinished observed piece in chunks and
        harvests completions.  Round one prepares as it submits — workers
        compute chunk ``k`` while the parent resolves chunk ``k+1``'s
        geometry — and later rounds resubmit what is prepared.  Under a
        :class:`~repro.parallel.supervise.SupervisionPolicy` a
        ``BrokenProcessPool`` or a blown deadline fails the round: the
        pool is torn down (workers killed) and respawned within
        ``max_respawns``, unfinished pieces are resubmitted with their
        attempt count bumped (which re-keys the fault-injection draws),
        and pieces that exhaust the retry policy — or every piece, once
        the respawn budget is spent — are recovered on the in-process
        serial path.  All recovery paths recompute identical inputs into
        identical rows, so the result is bit-identical to the serial
        reference.  Unsupervised, rounds have no deadline and the first
        ``BrokenProcessPool`` tears the pool down and propagates.
        """
        policy = self.supervision
        tracer = get_tracer()
        n_observed = len(plan.observed)
        chunk_size = max(
            1, math.ceil(n_observed / (workers * _CHUNKS_PER_WORKER))
        )
        shm_states = SharedEnsemble.from_array(plan.states)
        shm_obs = SharedEnsemble.from_array(plan.obs)
        shm_out = SharedEnsemble.create(plan.out.shape)
        try:
            ctx_bytes = self._ctx_bytes(plan, shm_states, shm_obs, shm_out, tracer)
            prepared: dict = {}  # plan index -> prepared piece
            pending = set(plan.observed)
            attempts = [0] * len(plan.pieces)  # by plan index
            respawns_left = policy.max_respawns if policy is not None else 0
            piece_seconds: float | None = None  # observed EWMA, overestimate
            n_chunks = 0
            while pending:
                pool = self._ensure_process_pool(workers)
                token = (id(self), next(self._call_counter))
                order = sorted(pending)
                round_t0 = time.perf_counter()
                remaining: dict = {}
                failure: str | None = None
                try:
                    for start in range(0, len(order), chunk_size):
                        idx = order[start:start + chunk_size]
                        for i in idx:
                            if i not in prepared:
                                prepared[i] = plan.prepare(i)
                        remaining[pool.submit(
                            run_chunk, token, ctx_bytes,
                            [prepared[i] for i in idx], attempts[idx[0]],
                        )] = idx
                    n_chunks += len(remaining)
                    # The deadline clock starts once the round is fully
                    # submitted: round one's parent-side geometry
                    # preparation is not the workers' time to lose.
                    end_by = None if policy is None else (
                        time.perf_counter()
                        + policy.deadline.deadline(len(order), piece_seconds)
                    )
                    while remaining:
                        done, _ = wait(
                            list(remaining),
                            timeout=None if end_by is None else max(
                                0.0, end_by - time.perf_counter()
                            ),
                            return_when=FIRST_COMPLETED,
                        )
                        if not done:
                            failure = "deadline"
                            break
                        for future in done:
                            pid, spans, samples = future.result()
                            idx = remaining.pop(future)
                            self._merge_worker_spans(tracer, pid, spans)
                            self._merge_worker_profile(pid, samples)
                            pending.difference_update(idx)
                            observed = (
                                (time.perf_counter() - round_t0) / len(idx)
                            )
                            piece_seconds = (
                                observed if piece_seconds is None
                                else 0.5 * (piece_seconds + observed)
                            )
                except BrokenProcessPool:
                    if policy is None:
                        raise
                    failure = "crash"
                if failure is not None:
                    self._recover_round(
                        plan, shm_out.array, pending, attempts,
                        failure, respawns_left,
                    )
                    if pending:  # a fresh pool will serve the next round
                        respawns_left -= 1
            if n_observed == len(plan.pieces):
                np.copyto(plan.out, shm_out.array)
            else:
                # Publish only the rows workers (or the serial fallback)
                # wrote: the rest of ``plan.out`` is the bulk fill.
                rows = np.concatenate(
                    [plan.pieces[i].interior_flat for i in plan.observed]
                )
                plan.out[rows] = shm_out.array[rows]
            if tracer.enabled:
                get_metrics().counter("parallel.chunks").inc(n_chunks)
        except BaseException:
            self._teardown_process_pool(kill=True)
            raise
        finally:
            shm_states.dispose()
            shm_obs.dispose()
            shm_out.dispose()

    def _recover_round(
        self, plan, out, pending, attempts, failure, respawns_left,
    ) -> None:
        """One failed round's recovery: teardown, triage, serial fallback.

        Mutates ``pending``/``attempts`` in place; pieces recovered
        serially are computed into ``out`` immediately and removed from
        ``pending``.
        """
        policy = self.supervision
        stats = self.supervision_stats
        metrics = get_metrics()
        recovery_t0 = time.perf_counter()
        with get_tracer().span(
            "parallel.recovery", category="recovery",
            cause=failure, n_pending=len(pending),
        ):
            if failure == "crash":
                stats.worker_crashes += 1
                metrics.counter("parallel.worker_crash").inc()
            else:
                stats.deadline_hits += 1
                metrics.counter("parallel.worker_deadline").inc()
            # Kill wedged workers and drop the pool either way: after a
            # blown deadline the survivors may still be mid-hang, and
            # after a crash the pool is broken beyond reuse.
            self._teardown_process_pool(kill=True)
            failed = sorted(pending)
            for i in failed:
                attempts[i] += 1
            exhausted = [
                i for i in failed
                if not policy.retry.should_retry(attempts[i] - 1)
            ]
            if respawns_left <= 0:
                # Respawn budget spent: no more pools, recover the whole
                # remainder serially (degraded but correct) and warn.
                exhausted = failed
                stats.plan_degrades += 1
                metrics.counter("parallel.degraded_serial").inc()
            retriable = [i for i in failed if i not in set(exhausted)]
            if retriable:
                stats.piece_retries += len(retriable)
                metrics.counter("parallel.piece_retry").inc(len(retriable))
                stats.pool_respawns += 1
                metrics.counter("parallel.pool_respawn").inc()
                backoff = policy.retry.delay(
                    max(attempts[i] for i in retriable) - 1
                )
                if backoff > 0.0:
                    time.sleep(backoff)
            for i in exhausted:
                # A round-one failure can land before piece i was ever
                # prepared; the cache makes asking again free otherwise.
                self._compute_into(plan, plan.prepare(i), out)
                pending.discard(i)
            if exhausted:
                stats.serial_fallback_pieces += len(exhausted)
                metrics.counter("parallel.serial_fallback").inc(len(exhausted))
        elapsed = time.perf_counter() - recovery_t0
        stats.recovery_seconds += elapsed
        metrics.counter("parallel.recovery_seconds").inc(elapsed)

    @staticmethod
    def _merge_worker_spans(tracer, pid: int, spans: list) -> None:
        """Re-base worker ``perf_counter`` spans onto the parent tracer.

        Worker clocks share CLOCK_MONOTONIC with the parent on Linux but
        the tracer clock is injectable, so spans are aligned to end at
        the parent's *receive* time — durations and relative order within
        one worker are preserved exactly.
        """
        if not tracer.enabled or not spans:
            return
        offset = tracer.now() - max(span[3] for span in spans)
        for name, category, start, end, attrs in spans:
            tracer.record(
                name, start + offset, end + offset,
                category=category, track=f"worker-{pid}", **attrs,
            )

    @staticmethod
    def _merge_worker_profile(pid: int, samples: list) -> None:
        """Fold a chunk's in-worker stack samples into the ambient
        profiler under the same ``worker-<pid>`` track the spans use —
        everything a worker samples *is* parallel local analysis, so the
        phase is fixed."""
        if not samples:
            return
        profiler = get_profiler()
        if profiler.enabled:
            profiler.merge_samples(f"worker-{pid}", "parallel", samples)

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        self._closed = True
        self._teardown_process_pool()

    def __enter__(self) -> "AnalysisExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


_serial_singleton: AnalysisExecutor | None = None


def serial_executor() -> AnalysisExecutor:
    """The shared pool-free executor backing the filters' default path."""
    global _serial_singleton
    if _serial_singleton is None:
        _serial_singleton = AnalysisExecutor(strategy="serial")
    return _serial_singleton
