"""The parallel analysis engine: strategy-selected fan-out.

:class:`AnalysisExecutor` runs the per-piece local analyses of an
:class:`AnalysisPlan` under one of three strategies:

``serial``
    The in-process loop — exactly the classic engine, and the reference
    every other strategy is checked against.
``thread``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor` over the
    same loop body: one task per observed piece, each writing its own
    disjoint interior rows of ``plan.out``.  Both halves of a piece
    overlap across threads: the regressions (stacked ``np.linalg.solve``
    and ``matmul``) and the banded closing (LAPACK ``dpbsv`` through a
    ``ctypes`` call) release the GIL; only the Python glue between them
    holds it (docs/PERFORMANCE.md §1).  A pool of ``w > 1`` threads warns
    once when ``w ×`` BLAS threads exceeds the CPU count.
``vectorized``
    Batched kernels over structurally equal pieces
    (:mod:`repro.parallel.vectorized`), analysed in runs of pieces: the
    calling thread groups the pieces and looks up bucket geometry, and
    every run goes to the same pool as one task (the runs' byte budget
    is shared by the runs in flight).  With one worker, or one run, the
    runs stay on the calling thread.
``auto``
    Picks one of the above from the shape of the plan's *observed* work
    (see :meth:`resolve`).

Only observed pieces are work.  A piece whose expansion holds no
observation has the (inflated) background as its analysis, so
:meth:`AnalysisPlan.fill_unobserved` writes all of them in one bulk pass
and every strategy prepares, submits and counts the observed pieces
alone — by their plan indices, never re-numbered.

The paper's helper-thread overlap (Sec. 4.2) is the thread strategy's
*submit-as-prepared* loop: the calling thread resolves each piece's
geometry (observation restriction, index arrays, modified-Cholesky
stencil) through the :class:`~repro.parallel.geometry.GeometryCache` and
submits the piece the moment it is prepared, so pool threads compute
piece ``k`` while the caller prepares piece ``k+1`` — with S-EnKF's
layer-major piece order, stage ``l+1`` prepared while stage ``l``
computes.  Both fan-outs — per-piece tasks and vectorized runs — go
through one body, :meth:`AnalysisExecutor._fan_out`, on one pool.

Determinism: serial and thread call the same
:func:`~repro.parallel.worker.compute_piece` on the same inputs, pieces
own disjoint interior rows, and all randomness (observation
perturbation) is consumed *before* the plan is built — so their results
are bit-identical.  The vectorized strategy reorders BLAS reductions
and is held to rtol 1e-10 instead; at one pool width its runs are fixed,
so it is bit-identical run to run.

A piece or run that raises fails the run with that exception, as in the
serial loop; nothing is retried here.  Recovery is checkpoint-restart
(:meth:`repro.checkpoint.runner.CampaignRunner.supervise`).
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.core.inflation import inflate
from repro.parallel.geometry import GeometryCache, PieceGeometry
from repro.parallel.vectorized import run_vectorized
from repro.parallel.worker import KIND_ENKF, KIND_ETKF, compute_piece
from repro.telemetry.metrics import get_metrics, use_thread_metrics
from repro.telemetry.tracer import get_tracer, use_thread_tracer

__all__ = ["AnalysisExecutor", "AnalysisPlan", "serial_executor"]

STRATEGIES = ("auto", "serial", "thread", "vectorized")

#: auto-strategy ceiling on the plan's total expansion points: below it
#: fan-out stays off.  Set when fan-out meant processes and shared
#: memory; not retuned for threads (docs/PERFORMANCE.md §1, open).
_SERIAL_POINTS_CEILING = 8_192

#: auto-strategy thresholds for the vectorized (batched-kernel) path: it
#: needs enough pieces for stacking to amortise, and small-enough mean
#: expansions that per-piece Python/BLAS-dispatch overhead — not the
#: solves themselves — dominates the fan-out strategy.  Batching wins on
#: one core too (its runs fan out when there are more), so this check
#: runs before the worker check.
_VECTORIZED_MIN_PIECES = 16
_VECTORIZED_MEAN_POINTS_CEILING = 512

#: the variables BLAS libraries read their thread count from
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_oversubscription_lock = threading.Lock()
_oversubscription_warned = False


def _warn_if_oversubscribed(workers: int) -> None:
    """One ``RuntimeWarning`` per process when a pool of ``workers > 1``
    threads, each running a BLAS with its own threads, asks for more
    threads than there are CPUs (docs/PERFORMANCE.md §1).

    The BLAS thread count is the smallest of the set thread variables, or
    the CPU count when none is set (what OpenBLAS and MKL default to).
    Nothing is changed: the warning names the variable to set.
    """
    global _oversubscription_warned
    cpus = os.cpu_count() or 1
    pinned = [
        int(value) for value in map(os.environ.get, _BLAS_THREAD_VARS)
        if value and value.strip().isdigit() and int(value) > 0
    ]
    blas_threads = min(pinned, default=cpus)
    if workers < 2 or workers * blas_threads <= cpus:
        return
    with _oversubscription_lock:
        if _oversubscription_warned:
            return
        _oversubscription_warned = True
    warnings.warn(
        f"{workers} analysis threads x {blas_threads} BLAS thread(s) each "
        f"oversubscribe {cpus} CPUs; start Python with "
        f"OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1 or MKL_NUM_THREADS=1 "
        f"for other BLAS builds) and use at most {cpus} workers",
        RuntimeWarning,
        stacklevel=4,
    )


@dataclass
class AnalysisPlan:
    """One assimilation call's work-list, data and parameters.

    ``obs`` is the full observation payload (perturbed ``Yˢ`` for the
    EnKF kinds, plain ``y`` for the ETKF); ``params`` are the
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
        ``auto`` (default), ``serial``, ``thread`` or ``vectorized``.
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  Capped by the
        plan's observed piece count at run time.
    """

    def __init__(
        self,
        strategy: str = "auto",
        workers: int | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.strategy = strategy
        self.workers = workers
        self._max_workers = int(workers or os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    # -- strategy selection ----------------------------------------------------
    def effective_workers(self, n_pieces: int) -> int:
        return max(1, min(self._max_workers, max(n_pieces, 1)))

    def resolve(self, plan: AnalysisPlan) -> str:
        """The concrete strategy this plan will run under.

        ``auto`` sizes the plan by its observed pieces — their count and
        their expansion points — since the rest is one bulk fill under
        any strategy: many small observed pieces batch (``vectorized``),
        fewer than two observed pieces or under ``8 192`` observed points
        stay on the calling thread (``serial``), anything larger fans
        out (``thread``).
        """
        if self.strategy != "auto":
            return self.strategy
        n_pieces = len(plan.observed)
        points = sum(plan.pieces[i].exp_size for i in plan.observed)
        # Batched kernels beat per-piece fan-out when many small pieces
        # make the per-piece dispatch overhead dominate.  That win needs no
        # second core (with one, the runs just stay on this thread), so it
        # is tested before the worker-availability checks.
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
        return "thread"

    # -- execution -------------------------------------------------------------
    def run(self, plan: AnalysisPlan) -> int:
        """Analyse every piece of ``plan`` into ``plan.out``; returns the
        number of local analyses performed."""
        if self._closed:
            raise ValueError("executor is closed")
        strategy = self.resolve(plan)
        n_pieces = len(plan.pieces)
        n_observed = len(plan.observed)
        workers = self.effective_workers(n_observed) if strategy == "thread" else 1
        tracer = get_tracer()
        with tracer.span(
            "parallel.run",
            category="parallel",
            strategy=strategy,
            n_pieces=n_pieces,
            n_observed=n_observed,
            workers=workers,
        ) as span:
            if strategy == "vectorized":
                # the runs' width is known once their buckets are looked up
                workers = run_vectorized(
                    plan, self.effective_workers(n_observed), self._fan_out
                )["workers"]
                span.set(workers=workers)
            else:
                plan.fill_unobserved()
                if strategy == "serial":
                    for i in plan.observed:
                        self._compute_into(plan, plan.prepare(i))
                elif n_observed:  # nothing observed: no pool
                    # submit as prepared: the generator prepares piece k+1
                    # on this thread while the pool computes piece k
                    self._fan_out(
                        partial(self._compute_into, plan, plan.prepare(i))
                        for i in plan.observed
                    )
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
    def _compute_into(plan: AnalysisPlan, prepared) -> None:
        """One piece analysed into its interior rows of ``plan.out``: the
        body of the serial loop and of every pool task."""
        index, piece, geometry = prepared
        with get_tracer().span(
            "parallel.local_analysis", category="parallel", piece=index
        ):
            plan.out[geometry.interior_flat] = compute_piece(
                plan.kind, piece, plan.states[geometry.expansion_flat],
                plan.obs, geometry, plan.params,
            )

    # -- thread pool -----------------------------------------------------------
    def _fan_out(self, tasks) -> None:
        """The one fan-out body: run each zero-argument task of ``tasks`` on
        the persistent pool, submitted the moment it is drawn.

        ``tasks`` is drawn on the calling thread, so whatever builds a task
        (a piece's geometry lookup) runs there while the pool computes the
        tasks already submitted.  Tasks must write disjoint rows of
        ``plan.out``.  A failure — a task's or the caller's
        own — cancels every task that has not started and waits for the
        running ones (they hold ``plan.out``) before it propagates.  The
        pool starts tasks in submit order, so the exception re-raised is
        the first failure in that order, the one a loop would raise.
        """
        with self._lock:  # persistent: created on the first fanned-out run
            if self._pool is None:
                _warn_if_oversubscribed(self._max_workers)
                self._pool = ThreadPoolExecutor(
                    self._max_workers, thread_name_prefix="senkf-analysis"
                )
            pool = self._pool
        # Both may be thread-scoped in the caller; a pool thread would
        # otherwise see the process-global defaults.
        tracer, metrics = get_tracer(), get_metrics()

        def call(task) -> None:
            with use_thread_tracer(tracer), use_thread_metrics(metrics):
                task()

        futures = []
        try:
            for task in tasks:
                futures.append(pool.submit(call, task))
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()  # no effect on a running or finished task
            wait(futures)
        for future in futures:
            future.result()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut down and join the persistent pool (idempotent)."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

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
