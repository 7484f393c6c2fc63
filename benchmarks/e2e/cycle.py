"""One workload in one process: the measured read -> stage -> analyse ->
write cycle, its correctness gate, and the traced per-layer run.

Launched by ``run.py`` (which pins the BLAS thread count in the
environment *before* NumPy is imported here); prints one JSON object as
its last line of standard output.  Only public functions of ``repro`` are
driven, with the one exception the issue names: ``_plan_pieces``, the
filter's work-list, for the geometry and kernel probes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.core.domain import Decomposition  # noqa: E402
from repro.core.grid import Grid  # noqa: E402
from repro.core.inflation import inflate  # noqa: E402
from repro.core.observations import (  # noqa: E402
    ObservationNetwork, perturb_observations,
)
from repro.data import EnsembleStore, read_plan_from_disk  # noqa: E402
from repro.filters import PEnKF, SEnKF  # noqa: E402
from repro.io import block_read_plan, concurrent_access_plan  # noqa: E402
from repro.models.grf import (  # noqa: E402
    correlated_ensemble, gaussian_random_field,
)
from repro.parallel import (  # noqa: E402
    KIND_ENKF, AnalysisPlan, GeometryCache, compute_piece, run_vectorized,
)
from repro.telemetry.tracer import Tracer, use_tracer  # noqa: E402
from workloads import GRID_SPACING_KM, HALO, select  # noqa: E402

RADIUS_KM = 60.0
INFLATION = 1.05
RIDGE = 1e-2
WORKERS = 2
N_CG = 2
OBS_STD = 0.5
#: background/truth correlation length.  Short on purpose: ~1.6 cells gives
#: the fields thousands of independent degrees of freedom, which keeps
#: ``rmse_ratio`` within a few percent across seeds.
CORR_KM = 40.0
#: set-ups (filter construction + cold cycle) per untraced run; their lower
#: quartile is ``setup_s`` (the first one also pays the process's own first
#: touches and runs up to twice as long)
SETUP_REPEATS = 5
#: tolerance of the traced run's auto-vs-serial equivalence check
REF_RTOL, REF_ATOL = 1e-8, 1e-10

LAYER_SPANS = (
    "io.strategies.plan",
    "data.store.read",
    "stage.scatter",
    "filters.assimilate",
    "data.store.write",
)
PROGRAM_SPANS = (
    "parallel.prepare",
    "parallel.local_analysis",
    "vectorized.bucket",
    "store.read_extents",
    "store.write_member",
)

_NO_SPAN = nullcontext()


def _no_span(name):
    return _NO_SPAN


def seconds_of(record: dict) -> float:
    return record["end"] - record["start"]


class SpanLog:
    """Harness-owned spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.cycle: int | None = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "cycle": self.cycle,
            "start": time.perf_counter(),
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [seconds_of(s) for s in self.spans if s["name"] == name]


@dataclass
class Cycle:
    index: int
    seconds: float
    plan: object
    staged: object
    analysis: object
    network: object
    y: object
    rmse_ratio: float = float("nan")


def scatter(plan, data, n: int, n_members: int):
    """Stage what every rank read into the ``(n, N)`` background.

    The program has no public staging function yet, so the harness owns
    this step: each ``ReadOp``'s values go to the flat indices its extents
    cover.  Ranks' ops share extent tuples across files, so the index
    arrays are built once per distinct tuple.
    """
    states = np.empty((n, n_members))
    indices: dict[tuple, object] = {}
    for rank, per_file in data.items():
        for op in plan.per_rank[rank].reads:
            idx = indices.get(op.extents)
            if idx is None:
                idx = indices[op.extents] = op.indices()
            states[idx, op.file_id] = per_file[op.file_id]
    return states


class Harness:
    """The synthetic twin, its files, and the cycle that is measured."""

    def __init__(self, spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.attempted = 0
        self.failed_cycles: set[int] = set()
        self.failures: list[str] = []
        self.next_index = 0

        t0 = time.perf_counter()
        self.grid = Grid(spec.n_x, spec.n_y, GRID_SPACING_KM, GRID_SPACING_KM)
        self.decomp = Decomposition(
            self.grid, spec.n_sdx, spec.n_sdy, xi=HALO, eta=HALO
        )
        data_rng, self.obs_rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)
        )
        self.truth = gaussian_random_field(self.grid, CORR_KM, rng=data_rng)
        mean = self.truth + gaussian_random_field(
            self.grid, CORR_KM, rng=data_rng
        )
        self.background = correlated_ensemble(
            self.grid, spec.n_members, CORR_KM, mean=mean, rng=data_rng
        )
        self.background_rmse = self._rmse(self.background)
        self.network = self._new_network()
        self.datagen_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        self.bg_store = EnsembleStore(workdir / "background", self.grid)
        self.bg_store.write_ensemble(self.background)
        self.write_background_s = time.perf_counter() - t0
        self.an_store = EnsembleStore(workdir / "analysis", self.grid)

    # -- generated inputs ----------------------------------------------------
    def _new_network(self):
        """Random observation sites whose *work* does not depend on the seed.

        Dense workloads draw the same number of sites inside every
        sub-domain; clustered ones draw them in a box centred in one
        randomly chosen sub-domain, clear of its halo, so that exactly one
        piece sees observations.  Which cells are observed is random; how
        many each local analysis sees is not, and cycle time stays
        comparable across seeds.
        """
        spec, rng, decomp = self.spec, self.obs_rng, self.decomp
        if spec.obs_box is None:
            per_subdomain = spec.n_obs // decomp.n_subdomains
            cells = [
                (sd, rng.choice(sd.size, size=per_subdomain, replace=False))
                for sd in decomp
            ]
        else:
            # not in a polar band: those have a clamped, smaller expansion
            sd = decomp.subdomain(
                int(rng.integers(decomp.n_sdx)),
                int(rng.integers(1, decomp.n_sdy - 1)),
            )
            box = spec.obs_box
            inset_x, inset_y = (sd.n_cols - box) // 2, (sd.n_rows - box) // 2
            picked = rng.choice(box * box, size=spec.n_obs, replace=False)
            cells = [(
                sd,
                (inset_y + picked // box) * sd.n_cols + inset_x + picked % box,
            )]
        ix = np.concatenate([sd.ix0 + c % sd.n_cols for sd, c in cells])
        iy = np.concatenate([sd.iy0 + c // sd.n_cols for sd, c in cells])
        return ObservationNetwork(self.grid, ix, iy, OBS_STD)

    def perturbation_rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def _rmse(self, ensemble) -> float:
        return float(np.sqrt(np.mean((ensemble.mean(axis=1) - self.truth) ** 2)))

    # -- the program under test ----------------------------------------------
    def new_filter(self, strategy: str = "auto", geometry_cache=None):
        common = dict(
            radius_km=RADIUS_KM, inflation=INFLATION, ridge=RIDGE,
            strategy=strategy, geometry_cache=geometry_cache,
            workers=WORKERS if strategy == "auto" else None,
        )
        if self.spec.read == "block":
            return PEnKF(**common)
        return SEnKF(n_layers=self.spec.n_layers, **common)

    def read_plan(self):
        layout, n_files = self.bg_store.layout, self.spec.n_members
        if self.spec.read == "block":
            return block_read_plan(self.decomp, layout, n_files)
        return concurrent_access_plan(self.decomp, layout, n_files, N_CG)

    def cycle(self, filt, span=_no_span, tracer=None) -> Cycle:
        """One plan -> read -> stage -> analyse -> write cycle, timed whole,
        then checked in its untimed tail.

        ``span`` opens the harness's own spans and ``tracer`` is installed
        as the program's ambient tracer for the timed part; the defaults
        leave all tracing off.
        """
        index = self.next_index
        self.next_index += 1
        if self.spec.moving_network and index:
            self.network = self._new_network()
        network = self.network
        y = network.observe(self.truth, rng=self.obs_rng)
        rng = self.perturbation_rng(index)

        with use_tracer(tracer):
            t0 = time.perf_counter()
            with span("cycle"):
                with span("io.strategies.plan"):
                    plan = self.read_plan()
                with span("data.store.read"):
                    data = read_plan_from_disk(plan, self.bg_store)
                with span("stage.scatter"):
                    staged = scatter(
                        plan, data, self.grid.n, self.spec.n_members
                    )
                with span("filters.assimilate"):
                    analysis = filt.assimilate(
                        self.decomp, staged, network, y, rng=rng
                    )
                with span("data.store.write"):
                    self.an_store.write_ensemble(analysis)
            seconds = time.perf_counter() - t0
        cycle = Cycle(index, seconds, plan, staged, analysis, network, y)
        self._check(cycle)
        return cycle

    def _fail(self, cycle: Cycle, problem: str) -> None:
        self.failed_cycles.add(cycle.index)
        self.failures.append(f"cycle {cycle.index}: {problem}")
        print(f"FAILED cycle {cycle.index}: {problem}", file=sys.stderr)

    def _check(self, cycle: Cycle) -> None:
        self.attempted += 1
        if not np.array_equal(cycle.staged, self.background):
            self._fail(cycle, "staged background differs from the generated one")
        analysis = cycle.analysis
        if analysis.shape != self.background.shape:
            self._fail(cycle, f"analysis has shape {analysis.shape}")
            return
        if not np.isfinite(analysis).all():
            self._fail(cycle, "analysis is not finite")
        elif not np.array_equal(self.an_store.read_ensemble(), analysis):
            self._fail(cycle, "written analysis does not read back identical")
        cycle.rmse_ratio = self._rmse(analysis) / self.background_rmse
        if self.spec.dense and not cycle.rmse_ratio < 1.0:
            self._fail(cycle, f"rmse_ratio {cycle.rmse_ratio:.4f} is not below 1")

    def check_reference(self, cycle: Cycle, reference) -> None:
        if not np.allclose(
            cycle.analysis, reference, rtol=REF_RTOL, atol=REF_ATOL
        ):
            self._fail(cycle, "auto analysis differs from the serial reference")


def max_rss_kib(who: int) -> int:
    return resource.getrusage(who).ru_maxrss


def run_untraced(harness: Harness, seconds: float) -> dict:
    """End-to-end metrics, all tracing off (the ambient null tracer)."""
    spec = harness.spec
    setup_s, cycle_s, ratios = [], [], []
    filt = None
    try:
        for _ in range(SETUP_REPEATS):
            if filt is not None:
                filt.close()
            t0 = time.perf_counter()
            filt = harness.new_filter()
            construct_s = time.perf_counter() - t0
            setup_s.append(construct_s + harness.cycle(filt).seconds)
        deadline = time.perf_counter() + seconds
        while len(cycle_s) < spec.min_cycles or time.perf_counter() < deadline:
            cycle = harness.cycle(filt)
            cycle_s.append(cycle.seconds)
            ratios.append(cycle.rmse_ratio)
            del cycle
            if len(cycle_s) == spec.min_cycles:
                # at a fixed cycle count: with a moving network the filter's
                # unbounded geometry cache grows every cycle, and a faster
                # program must not read as a fatter one
                self_kib = max_rss_kib(resource.RUSAGE_SELF)
    finally:
        if filt is not None:
            filt.close()  # reaps the pool: RUSAGE_CHILDREN now has the workers
    return {
        "samples": {
            "cycle_s": cycle_s, "cycle_median_s": cycle_s, "setup_s": setup_s,
        },
        "metrics": {
            # the lower quartile, not the median: on a shared box noise only
            # ever adds time, and the quartile of 20-50 cycles moves half as
            # much from run to run when a neighbour is busy
            "cycle_s": statistics.quantiles(cycle_s, n=4)[0],
            "cycle_median_s": statistics.median(cycle_s),
            "setup_s": statistics.quantiles(setup_s, n=4)[0],
            "peak_rss_mb": (
                self_kib + max_rss_kib(resource.RUSAGE_CHILDREN)
            ) / 1024.0,
            # over a fixed set of cycles, so that it is a function of the
            # seed alone and not of how many cycles fitted the budget
            "rmse_ratio": statistics.median(ratios[: spec.min_cycles]),
            "failed_share": len(harness.failed_cycles) / harness.attempted,
        },
        "info": {},
    }


def run_traced(harness: Harness, seconds: float) -> dict:
    """Per-layer metrics: harness spans around every public call, the
    program's own tracer switched on, then direct probes of single layers
    on the last traced cycle's inputs."""
    spec = harness.spec
    m: dict[str, float] = {
        "harness.datagen_s": harness.datagen_s,
        "harness.write_background_s": harness.write_background_s,
    }
    t0 = time.perf_counter()
    filt = harness.new_filter()
    m["setup.construct_s"] = time.perf_counter() - t0
    try:
        m["setup.warmup_cycle_s"] = harness.cycle(filt).seconds

        # -- warm cycles, untraced and traced by turns, so that both see the
        # same drift; the ratio of their medians is the tracing overhead
        log, tracer = SpanLog(), Tracer()
        untraced, traced = [], []
        before = filt.geometry.stats
        deadline = time.perf_counter() + 0.7 * seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            untraced.append(harness.cycle(filt).seconds)
            log.cycle = harness.next_index
            last = harness.cycle(filt, log.span, tracer)
            traced.append(last.seconds)
        after = filt.geometry.stats
        n_traced = len(traced)
        network = last.network

        def layer(name):
            return statistics.median(log.durations(name))

        cycle_s = layer("cycle")
        plan_s, read_s, scatter_s, assimilate_s, write_s = map(
            layer, LAYER_SPANS
        )
        plan = last.plan
        seeks, read_bytes = plan.total_seeks, plan.total_bytes_read()
        write_bytes = last.analysis.nbytes
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        m.update({
            "io.strategies.plan_s": plan_s,
            "io.strategies.plan_ops": sum(
                len(p.reads) for p in plan.per_rank.values()
            ),
            "io.strategies.plan_seeks": seeks,
            "data.store.read_s": read_s,
            "data.store.read_seeks": seeks,
            "data.store.read_bytes": read_bytes,
            "data.store.read_us_per_seek": 1e6 * read_s / seeks,
            "data.store.read_mb_per_s": read_bytes / 1e6 / read_s,
            "stage.scatter_s": scatter_s,
            "stage.bytes": last.staged.nbytes,
            "filters.assimilate_s": assimilate_s,
            "data.store.write_s": write_s,
            "data.store.write_bytes": write_bytes,
            "data.store.write_mb_per_s": write_bytes / 1e6 / write_s,
            "parallel.geometry.hit_ratio": hits / (hits + misses),
            "parallel.geometry.bytes": after["bytes"],
            "telemetry.trace_overhead_ratio": cycle_s
            / statistics.median(untraced),
            "telemetry.spans_per_cycle": (len(log.spans) + len(tracer.spans))
            / n_traced,
            "telemetry.attributed_share": statistics.median(
                sum(layers) / whole
                for *layers, whole in zip(
                    *map(log.durations, LAYER_SPANS), log.durations("cycle")
                )
            ),
        })
        for name in PROGRAM_SPANS:
            m[f"span.{name}_s"] = (
                sum(s.duration for s in tracer.spans if s.name == name)
                / n_traced
            )

        # -- probes: single layers, directly, on the last cycle's inputs ------
        log.cycle = None
        # The plain single-threaded baseline.  It sees the geometry cache
        # as the filter does in a warm cycle: shared (all hits) when the
        # network is static, fresh (all misses) when it moves.
        reference_filter = harness.new_filter(
            "serial", None if spec.moving_network else filt.geometry
        )
        with log.span("probe.serial_reference") as record:
            reference = reference_filter.assimilate(
                harness.decomp, last.staged, network, last.y,
                rng=harness.perturbation_rng(last.index),
            )
        reference_filter.close()
        m["parallel.executor.auto_vs_serial"] = (
            seconds_of(record) / assimilate_s
        )
        harness.check_reference(last, reference)

        with log.span("probe.prologue") as record:
            inflated = inflate(last.staged, INFLATION)
            perturbed = perturb_observations(
                last.y, network.obs_error_std, spec.n_members,
                rng=harness.perturbation_rng(last.index),
            )
        m["filters.prologue_s"] = seconds_of(record)

        pieces = filt._plan_pieces(harness.decomp)
        fresh = GeometryCache()
        for name in ("cold", "warm"):
            with log.span(f"probe.geometry_{name}") as record:
                for piece in pieces:
                    fresh.get(network, piece, RADIUS_KM)
            m[f"parallel.geometry.{name}_s"] = seconds_of(record)

        probe = AnalysisPlan(
            kind=KIND_ENKF, pieces=pieces, states=inflated, obs=perturbed,
            out=np.empty_like(inflated), network=network,
            params={
                "radius_km": RADIUS_KM, "ridge": RIDGE, "sparse_solver": False,
            },
            cache=filt.geometry,
        )
        strategy = filt.executor.resolve(probe)
        prepared = [probe.prepare(i) for i in range(len(pieces))]
        m["parallel.executor.pieces"] = len(pieces)
        m["parallel.executor.pieces_with_obs"] = sum(
            geometry.obs_positions.size > 0 for _, _, geometry in prepared
        )
        with log.span("probe.kernel_per_piece") as record:
            for _, piece, geometry in prepared:
                probe.out[geometry.interior_flat] = compute_piece(
                    probe.kind, piece, probe.states[geometry.expansion_flat],
                    probe.obs, geometry, probe.params,
                )
        kernel_s = seconds_of(record)
        m["core.kernel_per_piece_s"] = kernel_s
        m["core.kernel_us_per_point"] = 1e6 * kernel_s / sum(
            piece.exp_size for piece in pieces
        )
        with log.span("probe.vectorized") as record:
            buckets = run_vectorized(probe)
        m["parallel.vectorized.run_s"] = seconds_of(record)
        m["parallel.vectorized.n_buckets"] = buckets["n_buckets"]
        m["parallel.vectorized.pad_waste"] = buckets["pad_waste"]
    finally:
        filt.close()

    (OUT_DIR / f"trace-{spec.name}.json").write_text(json.dumps({
        "workload": spec.name,
        "seed": harness.seed,
        "harness_spans": log.spans,
        "program_spans": [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "id": s.span_id, "parent": s.parent_id, "track": s.track,
            }
            for s in tracer.spans
        ],
    }))
    return {
        "samples": {
            "cycle_s_untraced": untraced,
            "cycle_s_traced": traced,
        },
        "metrics": {k: float(v) for k, v in m.items()},
        "info": {"parallel.executor.strategy": strategy},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": WORKERS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = select(args.smoke)[args.workload]
    env = environment()  # load average before the run disturbs it
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT_DIR) as workdir:
        harness = Harness(spec, args.seed, Path(workdir))
        run = run_traced if args.trace else run_untraced
        result = run(harness, args.seconds)
    result.update({
        "workload": spec.name,
        "sizes": asdict(spec),
        "env": env,
        "attempted": harness.attempted,
        "failed": len(harness.failed_cycles),
        "failures": harness.failures,
    })
    print(json.dumps(result))
    return 1 if harness.failed_cycles else 0


if __name__ == "__main__":
    sys.exit(main())
