"""The parallel analysis engine: one batched kernel over one pool.

:class:`AnalysisExecutor` runs the local analyses of an
:class:`AnalysisPlan` through one engine, the batched kernel in runs of
:mod:`repro.parallel.vectorized`: the calling thread groups the observed
pieces into buckets of structurally equal pieces and looks up their
geometry through the :class:`~repro.parallel.geometry.GeometryCache`;
every run of every bucket is then one task on a persistent
:class:`~concurrent.futures.ThreadPoolExecutor`.  Both LAPACK halves of
a run (the stacked regressions and the banded ``dpbsv`` closing, called
through ``ctypes``) release the GIL, so the runs overlap across threads
(docs/PERFORMANCE.md §1).  ``workers`` is the only knob; the width is
capped by the plan's run count, and with one worker, or one run, the
runs stay on the calling thread and no pool is started.  A pool of
``w > 1`` threads warns once when ``w ×`` BLAS threads exceeds the CPU
count.

There is one analysis kind, the stochastic modified-Cholesky local
analysis of Eq. 6 (``KIND_ENKF``); a plan of any other kind is rejected
before anything is written.

Only observed pieces are work.  A piece whose expansion holds no
observation has its inflated background as its analysis, so
:meth:`AnalysisPlan.fill_unobserved` writes all of them in one bulk
pass and the engine prepares, batches and counts the observed pieces
alone — by their plan indices, never re-numbered.

Determinism: a run is sized from a fixed byte budget, never from the
pool width, so the runs — and with them every reduction order — are the
same at any worker count; runs write disjoint interior rows and all
randomness (observation perturbation) is consumed *before* the plan is
built.  Results are therefore bit-identical at every width.  Against the
per-piece reference :func:`~repro.parallel.worker.compute_piece` they
agree to rtol 1e-10 (stacking reorders BLAS reductions).

A run that raises fails the plan with that exception, as a loop over the
runs would; nothing is retried here.  Recovery is checkpoint-restart
(:meth:`repro.checkpoint.runner.CampaignRunner.supervise`).
"""

from __future__ import annotations

import os
import sys
import threading
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.inflation import inflate
from repro.parallel.geometry import GeometryCache, PieceGeometry
from repro.parallel.vectorized import run_vectorized
from repro.parallel.worker import KIND_ENKF
from repro.telemetry.metrics import get_metrics, use_thread_metrics
from repro.telemetry.tracer import get_tracer, use_thread_tracer

__all__ = ["AnalysisExecutor", "AnalysisPlan", "serial_executor"]

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
    Nothing is changed: the warning names the variable to set.  It points
    at the first frame outside this package — the caller of
    :meth:`AnalysisExecutor.run` — however deep the fan-out that starts
    the pool.
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
    here = os.path.dirname(__file__)
    frame, stacklevel = sys._getframe(), 1
    while os.path.dirname(frame.f_code.co_filename) == here:
        frame, stacklevel = frame.f_back, stacklevel + 1
    warnings.warn(
        f"{workers} analysis threads x {blas_threads} BLAS thread(s) each "
        f"oversubscribe {cpus} CPUs; start Python with "
        f"OPENBLAS_NUM_THREADS=1 (OMP_NUM_THREADS=1 or MKL_NUM_THREADS=1 "
        f"for other BLAS builds) and use at most {cpus} workers",
        RuntimeWarning,
        stacklevel=stacklevel,
    )


@dataclass
class AnalysisPlan:
    """One assimilation call's work-list, data and parameters.

    ``kind`` must be ``KIND_ENKF``; ``states`` is the background as
    read, *before* inflation; ``obs`` is the full perturbed observation
    matrix ``Yˢ``; ``params`` are the scalars the kernel needs
    (``radius_km``, which also keys the geometry, ``ridge`` and the
    optional ``inflation``, applied to each run's gathered rows and in
    the bulk fill — never to a copy of ``states``); ``out`` is filled in
    place (each piece owns its interior rows).
    """

    kind: str
    pieces: list
    states: np.ndarray
    obs: np.ndarray
    out: np.ndarray
    network: object
    params: dict
    cache: GeometryCache = field(default_factory=GeometryCache)

    @cached_property
    def observed(self) -> tuple[int, ...]:
        """Plan indices of the pieces that see at least one observation
        (asked of the cache once per plan; no geometry is built)."""
        return self.cache.observed(self.network, self.pieces)

    @property
    def inflation(self) -> float:
        """The multiplicative inflation of ``states`` (``params``'
        ``"inflation"``, 1.0 when absent)."""
        return float(self.params.get("inflation", 1.0))

    def fill_unobserved(self) -> None:
        """Fill every observation-free piece at once.

        With no local observation the analysis is the inflated
        background, so one pass writes ``inflate(states)`` (or a plain
        copy, at inflation 1) straight into all of ``out`` and the
        observed pieces then overwrite their interiors.  A plan with no
        unobserved piece fills nothing.
        """
        if len(self.observed) == len(self.pieces):
            return
        if self.inflation == 1.0:
            np.copyto(self.out, self.states)
        else:
            inflate(self.states, self.inflation, out=self.out)

    def prepare(self, index: int) -> tuple[int, object, PieceGeometry]:
        """Resolve one piece's geometry (cached)."""
        piece = self.pieces[index]
        tracer = get_tracer()
        if tracer.enabled:
            with tracer.span(
                "parallel.prepare", category="parallel", piece=index
            ) as span:
                geometry, cached = self.cache.get(
                    self.network, piece, self.params["radius_km"]
                )
                span.set(cached=cached)
        else:
            geometry, _ = self.cache.get(
                self.network, piece, self.params["radius_km"]
            )
        return index, piece, geometry


class AnalysisExecutor:
    """Persistent-pool executor of the batched local analyses.

    Parameters
    ----------
    workers:
        Pool width; ``None`` uses ``os.cpu_count()``.  Capped at run time
        by the plan's run count.  Results are bit-identical at any width.
    """

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._max_workers = int(workers or os.cpu_count() or 1)
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    def effective_workers(self, n_tasks: int) -> int:
        """The width ``n_tasks`` tasks run at: the pool width, capped by
        the task count."""
        return max(1, min(self._max_workers, n_tasks))

    def resolve(self, plan: AnalysisPlan) -> str:
        """The engine this plan runs under — there is one, the batched
        kernel in runs.  A plan whose kind is not ``KIND_ENKF`` raises
        ``ValueError``."""
        if plan.kind != KIND_ENKF:
            raise ValueError(f"unknown analysis kind {plan.kind!r}")
        return "vectorized"

    # -- execution -------------------------------------------------------------
    def run(self, plan: AnalysisPlan) -> int:
        """Analyse every piece of ``plan`` into ``plan.out``; returns the
        number of local analyses performed."""
        if self._closed:
            raise ValueError("executor is closed")
        self.resolve(plan)
        n_pieces = len(plan.pieces)
        n_observed = len(plan.observed)
        tracer = get_tracer()
        with tracer.span(
            "parallel.run",
            category="parallel",
            n_pieces=n_pieces,
            n_observed=n_observed,
        ) as span:
            # the width is known once the buckets' runs are counted
            workers = run_vectorized(plan, self._fan_out)["workers"]
            span.set(workers=workers)
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

    # -- thread pool -----------------------------------------------------------
    def _fan_out(self, tasks: list) -> int:
        """Run every zero-argument task of ``tasks`` at
        :meth:`effective_workers` width; returns that width.

        At width one the tasks run here, in order, and no pool is started.
        Otherwise they go to the persistent pool, created on the first
        such call.  Tasks must write disjoint rows of ``plan.out``.  A
        failure cancels every task that has not started and waits for the
        running ones (they hold ``plan.out``) before it propagates.  The
        pool starts tasks in submit order, so the exception re-raised is
        the first failure in that order, the one a loop would raise.
        """
        width = self.effective_workers(len(tasks))
        if width == 1:
            for task in tasks:
                task()
            return width
        with self._lock:
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

        futures = [pool.submit(call, task) for task in tasks]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            for future in futures:
                future.cancel()  # no effect on a running or finished task
            wait(futures)
        for future in futures:
            future.result()
        return width

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
    """The shared one-worker executor backing the filters' default path
    (it never starts a pool)."""
    global _serial_singleton
    if _serial_singleton is None:
        _serial_singleton = AnalysisExecutor(workers=1)
    return _serial_singleton
