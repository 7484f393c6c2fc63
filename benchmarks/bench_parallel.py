"""Parallel-engine bench: serial vs thread fan-out vs the
batched *vectorized* kernel, with equivalence and geometry-cache
acceptance baked in.

Runs a 64-sub-domain DistributedEnKF problem for a few cycles under each
execution strategy of :class:`repro.parallel.AnalysisExecutor` and
records per-cycle wall times into a schema-versioned
``BENCH_parallel.json`` (location overridable with the
``BENCH_PARALLEL_PATH`` env var).  Acceptance, asserted on every run:

* thread analyses are **bit-identical** to the serial engine's,
  every cycle; the vectorized analysis matches to ``rtol <= 1e-10``
  (different linalg route, same mathematics — see
  ``docs/PERFORMANCE.md``);
* the geometry cache serves later cycles entirely from memory (cycle 2+
  performs zero ``restrict_to_box`` / stencil rebuilds);
* the vectorized kernel beats serial fan-out by >= 1.5x warm,
  **regardless of core count** — batching collapses the per-piece
  Python loop, so the win does not depend on having cores to fan onto
  and is asserted even on a 1-CPU smoke box;
* with every observation in one of 64 large sub-domains, ``auto`` stays
  within 1.1x of plain ``serial`` — it sizes the plan by its observed
  pieces and must not spin a pool up for one of them;
* on a machine with >= 4 cores, the warm-cycle thread time
  additionally beats serial by >= 2x (skipped — and recorded as
  skipped — on smaller boxes).  On the 2-core build host the paired
  median of per-cycle ``serial / thread`` ratios on this problem is
  0.63-0.81x (64 pieces of 96-160 points: the shape ``auto`` batches,
  not the one it fans out), nowhere near the 1.15x floor proposed for
  asserting it there, so it stays recorded and unasserted; threads win
  from ~512 points a piece up, e.g. ``large_pieces_moving`` in
  ``benchmarks/e2e`` (docs/PERFORMANCE.md §1, §5).

Usable three ways: under pytest (``test_parallel_bench_smoke``), as a
pytest case collected from this file, and as a CLI for CI smoke runs::

    python benchmarks/bench_parallel.py --smoke
    python benchmarks/bench_parallel.py --cycles 4
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core.domain import Decomposition
from repro.core.grid import Grid
from repro.core.observations import ObservationNetwork
from repro.filters.distributed import DistributedEnKF
from repro.parallel import AnalysisExecutor, GeometryCache
from repro.parallel.executor import STRATEGIES as EXECUTOR_STRATEGIES

SEED = 2019  # PPoPP'19

#: Version the artifact so downstream tooling can detect layout changes;
#: bump on any key rename or semantic change.  /2 added the vectorized
#: strategy, its always-asserted >= 1.5x warm speedup, and the backend
#: name; /3 dropped the backend name (NumPy is the only array library).
BENCH_PARALLEL_SCHEMA = "senkf-bench-parallel/3"

_DEFAULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"

#: every concrete strategy the executor offers, serial (the reference)
#: first.  Thread is held to bit-identity with it; vectorized is
#: tolerance-checked instead (a stack reduces in another order).
STRATEGIES = tuple(s for s in EXECUTOR_STRATEGIES if s != "auto")

#: vectorized-vs-serial warm speedup floor, asserted on EVERY run.
VECTORIZED_SPEEDUP_FLOOR = 1.5
#: auto-vs-serial ceiling of the clustered-observation case.
SPARSE_OBS_AUTO_CEILING = 1.1
#: tolerance of the vectorized-vs-serial equivalence check.  Solve
#: accuracy is *normwise*: both routes carry ~1e-12 absolute error on the
#: O(1) state field, so near-zero entries need an absolute floor well
#: above machine eps while every O(1) entry is still held to 1e-10
#: relative.
VECTORIZED_RTOL = 1e-10
VECTORIZED_ATOL = 1e-11


def validate_bench_parallel(payload: dict) -> None:
    """Assert ``payload`` conforms to :data:`BENCH_PARALLEL_SCHEMA`."""
    if payload.get("schema") != BENCH_PARALLEL_SCHEMA:
        raise ValueError(
            f"schema mismatch: {payload.get('schema')!r} != "
            f"{BENCH_PARALLEL_SCHEMA!r}"
        )
    for key in (
        "cpu_count", "n_subdomains", "n_members", "grid", "cycles",
        "timings", "identical", "best_speedup", "speedup_asserted",
        "speedup_note", "geometry_cache",
        "vectorized_speedup", "vectorized_equivalent",
        "fanout_speedup_asserted",
    ):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(payload["identical"], bool):
        raise ValueError("identical must be a bool")
    if not isinstance(payload["vectorized_equivalent"], bool):
        raise ValueError("vectorized_equivalent must be a bool")
    speedup = payload["vectorized_speedup"]
    if not isinstance(speedup, float) or speedup <= 0:
        raise ValueError("vectorized_speedup must be a positive float")
    timings = payload["timings"]
    if not timings or not isinstance(timings, dict):
        raise ValueError("timings must be a non-empty mapping")
    for strategy, seconds in timings.items():
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r} in timings")
        if not seconds or any(
            not isinstance(s, float) or s <= 0 for s in seconds
        ):
            raise ValueError(f"timings[{strategy!r}] must be positive floats")
    cache = payload["geometry_cache"]
    for key in ("hits", "misses", "entries"):
        if not isinstance(cache.get(key), int):
            raise ValueError(f"geometry_cache.{key} must be an int")


def parallel_setup(smoke: bool):
    """A >= 64-sub-domain problem sized for the parallel engine.

    Smoke keeps the per-piece systems tiny so a 1-core CI box finishes in
    seconds; the full setting makes each local analysis heavy enough that
    fan-out dominates dispatch overhead.
    """
    if smoke:
        grid = Grid(n_x=64, n_y=32, dx_km=25.0, dy_km=25.0)
        n_members, m_obs, radius_km = 12, 256, 60.0
    else:
        grid = Grid(n_x=96, n_y=48, dx_km=25.0, dy_km=25.0)
        n_members, m_obs, radius_km = 24, 768, 80.0
    decomp = Decomposition(grid, n_sdx=8, n_sdy=8, xi=2, eta=2)
    network = ObservationNetwork.random(
        grid, m=m_obs, obs_error_std=0.4, rng=np.random.default_rng(SEED)
    )
    rng = np.random.default_rng(SEED + 1)
    states = rng.normal(size=(grid.n, n_members))
    y = rng.normal(size=network.m)
    return grid, decomp, network, states, y, radius_km


def run_sparse_obs_case(workers: int, cycles: int = 20) -> dict:
    """One observed piece among 64: the plan ``auto`` must not fan out.

    A 256 x 128 grid in 8 x 8 sub-domains of 36 x 20 expansion points —
    too large to batch, 46 k points in all, the shape a rule on the
    *total* piece count sends to the thread pool — with every
    observation inside one sub-domain.  ``auto`` and ``serial`` run by
    turns, swapping who goes first, and the statistic asserted is the
    median over warm cycles of the paired ratio ``auto / serial``.  (The
    two run the same code here, and a build host throws the odd
    25 %-fast cycle and drifts by 20 % within a second: minima of the
    two sides read 0.7-1.2x run to run, the paired median 0.95-1.05x.)
    """
    grid = Grid(n_x=256, n_y=128, dx_km=25.0, dy_km=25.0)
    decomp = Decomposition(grid, n_sdx=8, n_sdy=8, xi=2, eta=2)
    box = np.arange(8)
    network = ObservationNetwork(
        grid, ix=np.tile(140 + box, 8), iy=np.repeat(68 + box, 8),
        obs_error_std=0.4,
    )
    rng = np.random.default_rng(SEED + 2)
    states = rng.normal(size=(grid.n, 12))
    y = rng.normal(size=network.m)
    filters = {
        strategy: DistributedEnKF(
            radius_km=60.0, inflation=1.05, ridge=1e-2,
            executor=AnalysisExecutor(strategy=strategy, workers=workers),
        )
        for strategy in ("auto", "serial")
    }
    seconds: dict[str, list[float]] = {strategy: [] for strategy in filters}
    try:
        n_observed = len(
            filters["auto"].geometry.observed(network, list(decomp))
        )
        reference = None
        for cycle in range(cycles + 1):  # cycle 0 builds the geometry
            for strategy in ("auto", "serial")[::1 if cycle % 2 else -1]:
                t0 = time.perf_counter()
                analysis = filters[strategy].assimilate(
                    decomp, states, network, y, rng=SEED + 20
                )
                if cycle:
                    seconds[strategy].append(time.perf_counter() - t0)
                if reference is None:
                    reference = analysis
                assert np.array_equal(analysis, reference)
                # a result left alive makes the next run allocate fresh
                # pages beside it (+20 % on whoever goes second)
                del analysis
    finally:
        for filt in filters.values():
            filt.executor.close()
    case = {
        "n_pieces": decomp.n_subdomains,
        "n_observed": n_observed,
        "auto_seconds": float(np.median(seconds["auto"])),
        "serial_seconds": float(np.median(seconds["serial"])),
        "auto_over_serial": float(np.median(
            np.divide(seconds["auto"], seconds["serial"])
        )),
    }
    assert case["n_pieces"] >= 64 and n_observed == 1, case
    assert case["auto_over_serial"] <= SPARSE_OBS_AUTO_CEILING, (
        f"auto fell behind serial on one observed piece: {case}"
    )
    return case


def run_parallel_bench(smoke: bool = False, cycles: int = 3,
                       workers: int | None = None) -> dict:
    """Run the strategy sweep; returns the (validated) artifact payload."""
    grid, decomp, network, states, y, radius_km = parallel_setup(smoke)
    n_pieces = decomp.n_subdomains
    assert n_pieces >= 64, f"bench problem must have >=64 sub-domains, got {n_pieces}"
    workers = workers or os.cpu_count() or 1

    timings: dict[str, list[float]] = {}
    references: list[np.ndarray] = []
    identical = True
    vectorized_equivalent = True
    cache_stats = None

    for strategy in STRATEGIES:
        cache = GeometryCache()
        filt = DistributedEnKF(
            radius_km=radius_km, inflation=1.05, ridge=1e-2,
            executor=AnalysisExecutor(strategy=strategy, workers=workers),
            geometry_cache=cache,
        )
        try:
            per_cycle = []
            for cycle in range(cycles):
                rng = np.random.default_rng(SEED + 10 + cycle)
                t0 = time.perf_counter()
                analysed = filt.assimilate(decomp, states, network, y, rng=rng)
                per_cycle.append(time.perf_counter() - t0)
                if strategy == "serial":
                    references.append(analysed)
                elif strategy == "vectorized":
                    if not np.allclose(
                        references[cycle], analysed,
                        rtol=VECTORIZED_RTOL, atol=VECTORIZED_ATOL,
                    ):
                        vectorized_equivalent = False
                elif not np.array_equal(references[cycle], analysed):
                    identical = False
            timings[strategy] = per_cycle
            if strategy == "serial":
                cache_stats = cache.stats
                # Cycle 1 builds every geometry; cycles 2+ must be pure hits.
                assert cache_stats["misses"] == n_pieces, cache_stats
                assert cache_stats["hits"] == n_pieces * (cycles - 1), cache_stats
        finally:
            filt.executor.close()

    # Warm-cycle comparison: skip cycle 0 (pool spin-up + geometry build).
    warm = {s: min(t[1:]) if len(t) > 1 else t[0] for s, t in timings.items()}
    best_speedup = warm["serial"] / warm["thread"]
    vectorized_speedup = warm["serial"] / warm["vectorized"]
    cpu_count = os.cpu_count() or 1
    # The fan-out 2x floor needs cores and a non-trivial problem; the
    # vectorized 1.5x floor is core-count-independent (batching removes
    # Python-loop overhead, it does not add concurrency) and is asserted
    # on every run, smoke and 1-CPU CI included.
    fanout_speedup_asserted = cpu_count >= 4 and not smoke
    speedup_asserted = True
    if fanout_speedup_asserted:
        speedup_note = ""
    elif cpu_count < 4:
        speedup_note = (
            f"fan-out speedup unverified on this runner ({cpu_count} CPU "
            f"core(s) < 4): vectorized speedup, equivalence and cache "
            f"acceptance still asserted"
        )
    else:
        speedup_note = (
            "fan-out speedup unverified in smoke mode (problem too small "
            "to amortise fan-out); vectorized speedup still asserted"
        )

    payload = {
        "schema": BENCH_PARALLEL_SCHEMA,
        "cpu_count": cpu_count,
        "workers": workers,
        "smoke": smoke,
        "grid": {"n_x": grid.n_x, "n_y": grid.n_y},
        "n_subdomains": n_pieces,
        "n_members": int(states.shape[1]),
        "cycles": cycles,
        "timings": timings,
        "warm_seconds": warm,
        "identical": identical,
        "vectorized_equivalent": vectorized_equivalent,
        "best_speedup": best_speedup,
        "vectorized_speedup": vectorized_speedup,
        "speedup_asserted": speedup_asserted,
        "fanout_speedup_asserted": fanout_speedup_asserted,
        "speedup_note": speedup_note,
        "geometry_cache": cache_stats,
        "sparse_obs": run_sparse_obs_case(workers),
    }
    validate_bench_parallel(payload)
    assert identical, "fan-out strategies diverged from the serial engine"
    assert vectorized_equivalent, (
        f"vectorized analysis diverged from serial beyond "
        f"rtol {VECTORIZED_RTOL:g}"
    )
    assert vectorized_speedup >= VECTORIZED_SPEEDUP_FLOOR, (
        f"expected >={VECTORIZED_SPEEDUP_FLOOR}x warm vectorized speedup "
        f"regardless of core count, got {vectorized_speedup:.2f}x "
        f"(warm seconds: {warm})"
    )
    if fanout_speedup_asserted:
        assert best_speedup >= 2.0, (
            f"expected >=2x warm fan-out speedup on a {cpu_count}-core box, "
            f"got {best_speedup:.2f}x (warm seconds: {warm})"
        )
    return payload


def write_payload(payload: dict) -> Path:
    path = Path(os.environ.get("BENCH_PARALLEL_PATH", _DEFAULT_PATH))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _append_to_history(payload)
    return path


def _append_to_history(payload: dict) -> Path:
    """Feed the regression sentinel: one ``parallel`` entry per run.

    The write-once ``BENCH_parallel.json`` keeps only today's numbers;
    the shared ``BENCH_history.jsonl`` (``BENCH_HISTORY_PATH`` env
    override) accretes the trajectory the
    ``senkf-experiments bench-report`` sentinel judges drift against.
    Warm seconds are recorded (not speedups) because the sentinel treats
    larger values as regressions; ``peak_rss_bytes`` rides along so the
    sentinel guards the fan-out's memory footprint the same way.
    """
    from repro.telemetry import append_history
    from repro.telemetry.memprof import peak_rss_bytes

    history = Path(
        os.environ.get(
            "BENCH_HISTORY_PATH",
            Path(__file__).resolve().parents[1] / "BENCH_history.jsonl",
        )
    )
    values = {
        f"{strategy}_warm_seconds": payload["warm_seconds"][strategy]
        for strategy in STRATEGIES
    }
    values["peak_rss_bytes"] = peak_rss_bytes()
    for side in ("auto", "serial"):
        values[f"sparse_obs_{side}_seconds"] = payload["sparse_obs"][
            f"{side}_seconds"
        ]
    append_history(
        history,
        "parallel",
        values,
        context={
            "smoke": payload["smoke"],
            "cycles": payload["cycles"],
            "cpu_count": payload["cpu_count"],
            "workers": payload["workers"],
            "vectorized_speedup": payload["vectorized_speedup"],
            "speedup_asserted": payload["speedup_asserted"],
        },
    )
    return history


def report(payload: dict) -> str:
    lines = [
        f"parallel engine bench — {payload['n_subdomains']} sub-domains, "
        f"N={payload['n_members']}, {payload['cpu_count']} core(s), "
        f"{payload['workers']} worker(s)",
        f"  {'strategy':<10} {'cold (s)':>10} {'warm (s)':>10}",
    ]
    for strategy in STRATEGIES:
        t = payload["timings"][strategy]
        lines.append(
            f"  {strategy:<10} {t[0]:>10.3f} {payload['warm_seconds'][strategy]:>10.3f}"
        )
    lines.append(
        f"  bit-identical (fan-out): {payload['identical']}   "
        f"vectorized equivalent: {payload['vectorized_equivalent']}"
    )
    lines.append(
        f"  fan-out speedup: {payload['best_speedup']:.2f}x"
        + ("" if payload["fanout_speedup_asserted"] else "  (not asserted)")
        + f"   vectorized speedup: {payload['vectorized_speedup']:.2f}x"
        + "  (asserted)"
    )
    if payload["speedup_note"]:
        lines.append(f"  note: {payload['speedup_note']}")
    sparse = payload["sparse_obs"]
    lines.append(
        f"  one observed piece of {sparse['n_pieces']}: auto "
        f"{sparse['auto_seconds']:.3f} s, serial "
        f"{sparse['serial_seconds']:.3f} s, paired "
        f"{sparse['auto_over_serial']:.2f}x  (<= "
        f"{SPARSE_OBS_AUTO_CEILING}x asserted)"
    )
    cache = payload["geometry_cache"]
    lines.append(
        f"  geometry cache: {cache['misses']} builds, {cache['hits']} hits "
        f"({cache['entries']} entries)"
    )
    return "\n".join(lines)


def test_parallel_bench_smoke():
    """Pytest entry: smoke-scale sweep with all acceptance checks.

    The vectorized >= 1.5x warm speedup is asserted *before* any skip —
    it holds regardless of core count, so even a 1-core box verifies it.
    When the runner is additionally too small to assert the >=2x fan-out
    speedup the test SKIPS with the payload's note instead of silently
    passing — a green dot must never read as "fan-out speedup verified"
    on a 1-core box.  The hard acceptance (bit-identity, vectorized
    equivalence, geometry-cache behaviour) is asserted before skipping
    either way.
    """
    import pytest

    payload = run_parallel_bench(smoke=True, cycles=2, workers=2)
    assert payload["identical"]
    assert payload["vectorized_equivalent"]
    assert payload["speedup_asserted"]
    assert payload["vectorized_speedup"] >= VECTORIZED_SPEEDUP_FLOOR
    if not payload["fanout_speedup_asserted"]:
        pytest.skip(payload["speedup_note"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem for CI smoke runs")
    parser.add_argument("--cycles", type=int, default=3,
                        help="assimilation cycles per strategy (default 3)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width (default: cpu count)")
    args = parser.parse_args(argv)
    payload = run_parallel_bench(
        smoke=args.smoke, cycles=max(2, args.cycles), workers=args.workers
    )
    path = write_payload(payload)
    print(report(payload))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
