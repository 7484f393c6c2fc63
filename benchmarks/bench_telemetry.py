"""Telemetry overhead bounds: what leaving the instruments on costs.

Two timing checks, kept out of tier-1 because they measure wall time on
whatever box runs them (CI's ``overhead`` job runs this module):

* **flight-recorder append** — a
  :class:`~repro.telemetry.flightrec.FlightRecorder` replaces the plain
  :class:`~repro.telemetry.tracer.Tracer`'s unbounded span list with a
  fixed ring.  Per-span append cost must stay **<= 2x** the plain
  tracer's (best of K rounds; in practice the ring sits near 1x — one
  length check and a deque append);
* **sampling profiler** — a serial P-EnKF analysis with the full
  observatory on (ambient tracer + sampling profiler) must stay within
  **1.10x** the bare analysis *and* bit-identical to it.

Run with ``-s`` to see the measured ratios::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -s
"""

import statistics
import time

import numpy as np

from repro.core import Decomposition, Grid, ObservationNetwork, radius_to_halo
from repro.filters import PEnKF
from repro.telemetry import (
    FlightRecorder,
    SamplingProfiler,
    Tracer,
    use_profiler,
    use_tracer,
)

#: ring append vs. plain list append.
MAX_FLIGHT_OVERHEAD_RATIO = 2.0

#: profiled vs. bare analysis wall time.  The sampler runs on its own
#: thread, so the analysis pays only GIL handoffs — measured ~2 %.
MAX_PROFILE_OVERHEAD_RATIO = 1.10


def _seconds_per_span(tracer, n_spans: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n_spans):
        with tracer.span("cycle", category="cycle"):
            pass
    return (time.perf_counter() - t0) / n_spans


def test_flight_recorder_append_overhead():
    """Per-span cost of the ring against the recording tracer it replaces.

    The best of ``rounds`` on each side guards the steady-state cost, not
    scheduler noise.  The recorder's capacity is far below ``n_spans``,
    so every append pays the eviction path (the worst case).  The
    baseline is a recording :class:`Tracer`, not ``NULL_TRACER``: any
    tracer that materialises spans is ~14x the disabled no-op, so the
    bound pins what the ring *adds*.
    """
    n_spans, rounds = 5_000, 3
    tracer = min(_seconds_per_span(Tracer(), n_spans) for _ in range(rounds))
    flight = min(
        _seconds_per_span(FlightRecorder(capacity=1024), n_spans)
        for _ in range(rounds)
    )
    ratio = flight / tracer
    print(f"\n  flight recorder {flight * 1e6:.2f} us/span vs tracer "
          f"{tracer * 1e6:.2f} us/span -> ratio {ratio:.2f} "
          f"(bound {MAX_FLIGHT_OVERHEAD_RATIO})")
    assert ratio <= MAX_FLIGHT_OVERHEAD_RATIO


def test_sampling_profiler_overhead_and_bit_identity():
    """Serial P-EnKF analysis, observatory on vs. off.

    The profiled side runs the ambient tracer plus the sampling profiler
    at its default interval, so the ratio prices everything "leave it on"
    costs.  On shared boxes the clock drifts by more than the sampler
    costs, so ratios come from back-to-back bare/profiled block pairs
    (order alternating round to round) and the bound applies to the best
    pair: a noisy neighbour can spoil one round, a real regression shows
    in every round.  The profiled output must also be bit-identical to
    the bare one: a profiler that perturbs the filter is broken no matter
    how cheap it is.
    """
    n_repeats, rounds = 8, 3
    grid = Grid(n_x=24, n_y=12, dx_km=2.5, dy_km=5.0)
    xi, eta = radius_to_halo(6.0, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=60, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = PEnKF(radius_km=6.0, inflation=1.05, ridge=1e-2)
    states = np.random.default_rng(5).standard_normal((grid.n, 16))
    y = network.observe(states[:, 0], rng=np.random.default_rng(2))

    def run_once():
        return filt.assimilate(
            decomp, states, network, y, rng=np.random.default_rng(3)
        )

    def time_block():
        t0 = time.perf_counter()
        for _ in range(n_repeats):
            out = run_once()
        return (time.perf_counter() - t0) / n_repeats, out

    tracer = Tracer()
    profiler = SamplingProfiler()
    reference = run_once()  # also warms caches for the bare rounds
    with use_tracer(tracer), use_profiler(profiler), profiler:
        run_once()  # warm the traced path
    ratios = []
    for r in range(rounds):
        if r % 2 == 0:
            bare = time_block()[0]
            with use_tracer(tracer), use_profiler(profiler), profiler:
                profiled, profiled_out = time_block()
        else:
            with use_tracer(tracer), use_profiler(profiler), profiler:
                profiled, profiled_out = time_block()
            bare = time_block()[0]
        ratios.append(profiled / bare)

    ratio = min(ratios)
    print(f"\n  sampling profiler: ratio {ratio:.3f} best, "
          f"{statistics.median(ratios):.3f} median over {rounds} rounds "
          f"(bound {MAX_PROFILE_OVERHEAD_RATIO}), "
          f"{profiler.report()['n_samples']} samples")
    assert np.array_equal(reference, profiled_out)
    assert ratio <= MAX_PROFILE_OVERHEAD_RATIO
