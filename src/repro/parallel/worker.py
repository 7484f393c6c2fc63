"""Pure piece-level compute functions + the process-pool entry point.

Both per-piece execution strategies — the in-process serial loop and
the process pool — funnel through :func:`compute_piece`, so the
numerics are *one* code path and the bit-identical guarantee of the
parallel engine reduces to "same inputs, same function".

The process-pool side adds plumbing only: :func:`run_chunk` attaches the
call's shared-memory arrays (cached across the chunks of one call,
released when the next call's token arrives), computes its pieces,
writes each result into the shared analysis array (pieces own disjoint
interior rows, so concurrent writers never overlap), and returns
wall-clock spans for the parent to merge into its tracer.

Chaos plumbing: when the call context carries a serialized
:class:`~repro.faults.schedule.FaultSchedule` with worker-fault knobs,
each piece first consults ``worker_hang`` (the worker sleeps — a wedge
the supervisor must deadline) and ``worker_crash`` (the worker calls
``os._exit`` — a death the supervisor must detect as a broken pool).
Draws are keyed on ``(piece, attempt)`` so the *real* recovery machinery
— respawn, piece retry, serial fallback — is exercised, not simulated.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any

import numpy as np

from repro.core.analysis import local_analysis
from repro.core.etkf import local_analysis_etkf
from repro.parallel.geometry import PieceGeometry
from repro.parallel.shared import AttachedArray, SharedArraySpec

__all__ = ["KIND_ENKF", "KIND_ETKF", "compute_piece", "run_chunk"]

KIND_ENKF = "enkf"  #: stochastic modified-Cholesky local analysis (Eq. 6)
KIND_ETKF = "etkf"  #: deterministic local ensemble-transform analysis


def compute_piece(
    kind: str,
    piece,
    expansion_states: np.ndarray,
    obs: np.ndarray,
    geometry: PieceGeometry,
    params: dict,
) -> np.ndarray:
    """One piece's local analysis: the single numerical entry point.

    ``obs`` is the full observation payload — the perturbed ``Yˢ`` matrix
    for the EnKF kinds, the raw ``y`` vector for the ETKF — from which the
    geometry's ``obs_positions`` select the local rows.
    """
    if kind == KIND_ENKF:
        return local_analysis(
            piece,
            expansion_states,
            None,
            obs,
            radius_km=params["radius_km"],
            ridge=params["ridge"],
            geometry=geometry,
        )
    if kind == KIND_ETKF:
        return local_analysis_etkf(
            piece,
            expansion_states,
            None,
            obs,
            inflation=params["inflation"],
            geometry=geometry,
        )
    raise ValueError(f"unknown analysis kind {kind!r}")


class _CallState:
    """One call's worker-side context: decoded ctx + shared-array views."""

    def __init__(self, token: Any, ctx_bytes: bytes):
        self.token = token
        self.ctx = pickle.loads(ctx_bytes)
        self.states = AttachedArray(SharedArraySpec(**self.ctx["states"]))
        self.obs = AttachedArray(SharedArraySpec(**self.ctx["obs"]))
        self.out = AttachedArray(SharedArraySpec(**self.ctx["out"]))
        self.faults = None
        if self.ctx.get("faults") is not None:
            from repro.faults.schedule import FaultSchedule

            self.faults = FaultSchedule.from_dict(self.ctx["faults"])

    def release(self) -> None:
        for attached in (self.states, self.obs, self.out):
            attached.release()


#: the most recent call's state; one entry is enough because a worker only
#: ever serves one executor call at a time (chunks of call k+1 are never
#: submitted before every chunk of call k completed)
_STATE: list[_CallState] = []


def _call_state(token: Any, ctx_bytes: bytes) -> _CallState:
    if _STATE and _STATE[0].token == token:
        return _STATE[0]
    while _STATE:
        _STATE.pop().release()
    state = _CallState(token, ctx_bytes)
    _STATE.append(state)
    return state


def run_chunk(
    token: Any, ctx_bytes: bytes, chunk: list, attempt: int = 0
) -> tuple[int, list, list]:
    """Process-pool task: analyse ``chunk``'s pieces against shared arrays.

    ``chunk`` is a list of ``(index, piece, geometry)`` triples prepared
    (and geometry-cached) in the parent.  ``attempt`` is the
    supervisor's resubmission count for these pieces (0 on first
    submission); it only feeds the fault-injection draws.  Returns
    ``(pid, spans, profile_samples)`` where ``spans`` are ``(name,
    category, start, end, attrs)`` tuples on this process's
    ``perf_counter`` clock (the parent re-bases them onto its tracer
    clock) and ``profile_samples`` are aggregated ``(stack, count)``
    pairs from the in-worker sampler — empty unless the context carries
    a ``profile`` interval (see
    :mod:`repro.telemetry.profiler`); the parent merges them onto the
    ``worker-<pid>`` track.
    """
    state = _call_state(token, ctx_bytes)
    ctx = state.ctx
    kind = ctx["kind"]
    params = ctx["params"]
    trace = ctx["trace"]
    profile = ctx.get("profile")
    states = state.states.array
    obs = state.obs.array
    out = state.out.array
    spans: list[tuple] = []
    if profile:
        from repro.telemetry.profiler import worker_begin_chunk

        worker_begin_chunk(profile)
    try:
        for index, piece, geometry in chunk:
            if state.faults is not None:
                hang = state.faults.worker_hang(index, attempt)
                if hang > 0.0:
                    time.sleep(hang)
                if state.faults.worker_crash(index, attempt):
                    # A real worker death: no cleanup, no exception — the
                    # parent sees a BrokenProcessPool, exactly as it would
                    # for a segfault or an OOM kill.
                    os._exit(13)
            t0 = time.perf_counter()
            xb = states[geometry.expansion_flat]
            result = compute_piece(kind, piece, xb, obs, geometry, params)
            out[geometry.interior_flat] = result
            if trace:
                spans.append((
                    "parallel.local_analysis",
                    "parallel",
                    t0,
                    time.perf_counter(),
                    {"piece": index, "n_obs": int(geometry.obs_positions.size)},
                ))
    finally:
        samples: list[tuple] = []
        if profile:
            from repro.telemetry.profiler import (
                worker_drain_samples,
                worker_end_chunk,
            )

            worker_end_chunk()
            samples = worker_drain_samples()
    return os.getpid(), spans, samples
