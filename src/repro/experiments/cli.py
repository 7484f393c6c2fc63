"""Command-line entry point: ``senkf-experiments [figure ...] [--full]``.

Examples::

    senkf-experiments fig13          # one figure, reduced scale
    senkf-experiments all            # every figure
    senkf-experiments fig9 --full    # paper-scale run (slow)

Besides figures, ``campaign`` runs a checkpointed mini reanalysis
campaign (real numpy cycling on a small ocean) and demonstrates durable
restart::

    senkf-experiments campaign --cycles 12 --kill-at 8   # crash mid-campaign
    senkf-experiments campaign --cycles 12 --resume      # pick it back up

and ``trace`` runs a fully instrumented chaos campaign — fault
injection, a mid-flight crash, a corrupted newest checkpoint, resume
with failover — and writes the capture as a Chrome trace (open in
Perfetto / chrome://tracing) plus a validated run report::

    senkf-experiments trace --cycles 10 --out trace-out

``doctor`` closes the observe → calibrate → tune loop: it runs a short
traced simulated campaign, fits the machine constants from the measured
span durations, joins the cost model's predictions against the
measurements (per phase and per cycle, retry spend broken out), prints
the attribution dashboard with drift flags and writes the validated
artifacts::

    senkf-experiments doctor --out doctor-out
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import default_config
from repro.experiments.registry import FIGURES, get_figure
from repro.experiments.report import format_result


def _campaign_problem(workers: int | None = None):
    """The CLI's fixed mini reanalysis: tiny ocean, P-EnKF numerics.

    Deterministic by construction — every invocation builds the same
    truth, ensemble and experiment, so ``--resume`` continues the exact
    run a crashed invocation left behind.  ``workers`` fans the local
    analyses over a filter-owned
    :class:`~repro.parallel.executor.AnalysisExecutor` — the analysis is
    bit-identical at any worker count, so resumes may freely mix
    ``--workers`` values.  Returns ``(twin, truth0, ensemble0, filt)``;
    callers that set ``workers`` must ``filt.close()`` when done.
    """
    import numpy as np

    from repro.core import (
        Decomposition,
        Grid,
        ObservationNetwork,
        radius_to_halo,
    )
    from repro.filters import PEnKF
    from repro.models import (
        AdvectionDiffusionModel,
        TwinExperiment,
        correlated_ensemble,
    )

    grid = Grid(n_x=24, n_y=12, dx_km=2.5, dy_km=5.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    radius_km = 6.0
    xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=60, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = PEnKF(radius_km=radius_km, inflation=1.05, ridge=1e-2,
                 workers=workers)
    twin = TwinExperiment(
        model,
        network,
        lambda states, y, rng: filt.assimilate(
            decomp, states, network, y, rng=rng
        ),
        steps_per_cycle=5,
        master_seed=3,
    )
    rng = np.random.default_rng(7)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=12.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, 16, length_scale_km=12.0, mean=np.zeros(grid.n), std=0.8, rng=rng
    )
    return twin, truth0, ensemble0, filt


def _run_campaign(args) -> int:
    """``senkf-experiments campaign``: checkpointed cycling with restart."""
    from repro.checkpoint import CampaignRunner, NoCheckpointError, SimulatedCrash

    twin, truth0, ensemble0, filt = _campaign_problem(workers=args.workers)
    try:
        runner = CampaignRunner(
            twin,
            args.dir,
            interval=args.interval,
            config={"experiment": "cli-campaign", "filter": "p-enkf"},
        )
        on_cycle = None
        if args.kill_at is not None:
            fired: list[int] = []

            def on_cycle(state):
                # One-shot: a supervised campaign resumes *through* the
                # kill cycle, so a sticky hook would burn the whole
                # restart budget on the same cycle.
                if state.cycle == args.kill_at and not fired:
                    fired.append(state.cycle)
                    raise SimulatedCrash(
                        f"simulated crash after cycle {state.cycle}"
                    )

        if args.supervise:
            result = runner.supervise(
                truth0,
                ensemble0,
                args.cycles,
                max_restarts=args.max_restarts,
                on_cycle=on_cycle,
            )
        elif args.resume:
            resumed_from = runner.store.latest()
            try:
                result = runner.resume(args.cycles, on_cycle=on_cycle)
            except NoCheckpointError as exc:
                print(f"nothing to resume: {exc}", file=sys.stderr)
                return 2
            print(f"resumed from checkpoint at cycle {resumed_from}")
        else:
            try:
                result = runner.run(
                    truth0, ensemble0, args.cycles, on_cycle=on_cycle
                )
            except SimulatedCrash as exc:
                print(f"{exc}")
                print(
                    f"checkpoints on disk: {runner.store.cycles()} "
                    f"(in {args.dir})"
                )
                print("rerun with `campaign --resume` to continue the campaign")
                return 0
    finally:
        filt.close()

    print(f"campaign complete: {result.n_cycles} cycles "
          f"(checkpoints at {runner.store.cycles()})")
    if args.supervise and runner.supervision is not None:
        from repro.telemetry import render_supervision

        print()
        print(render_supervision(runner.supervision.to_dict()))
    print("  cycle   background-RMSE   analysis-RMSE")
    for k in range(0, result.n_cycles, max(1, args.interval)):
        print(f"  {k + 1:5d}   {result.background_rmse[k]:15.3f}   "
              f"{result.analysis_rmse[k]:13.3f}")
    print(f"  mean analysis RMSE: {result.mean_analysis_rmse(skip=2):.4f}")
    return 0


def _run_trace(args) -> int:
    """``senkf-experiments trace``: traced chaos campaign -> Chrome trace.

    One invocation stages the full resilience story so every span family
    lands in a single capture: a faulty campaign crashes mid-flight, its
    newest checkpoint is corrupted on disk, and the resumed run has to
    retry transient read faults and fail over to the previous checkpoint
    before finishing its analyses.
    """
    from pathlib import Path

    from repro.checkpoint import CampaignRunner, SimulatedCrash
    from repro.experiments.asciiplot import gantt_chart
    from repro.faults import FaultSchedule
    from repro.telemetry import (
        MetricsRegistry,
        Tracer,
        render_phase_totals,
        use_metrics,
        write_chrome_trace,
    )

    out = Path(args.out or "trace-out")
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoints"
    # Crash just after the second checkpoint boundary by default, so the
    # corrupted newest checkpoint always has an older sibling to fail
    # over to.
    kill_at = args.kill_at if args.kill_at is not None else 2 * args.interval
    if not 0 < kill_at < args.cycles:
        print(
            f"--kill-at must fall inside the campaign (0, {args.cycles}), "
            f"got {kill_at}",
            file=sys.stderr,
        )
        return 2

    twin, truth0, ensemble0, filt = _campaign_problem(workers=args.workers)
    # High enough that transient read faults reliably fire across the few
    # dozen member reads a resume performs (the schedule is a pure
    # function of (seed, site), so a given seed is reproducible).
    faults = FaultSchedule(
        seed=args.fault_seed, member_fault_rate=0.3, member_fault_attempts=1
    )
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)

    def build_runner():
        return CampaignRunner(
            twin,
            ckpt_dir,
            interval=args.interval,
            faults=faults,
            config={"experiment": "cli-trace", "filter": "p-enkf"},
            tracer=tracer,
        )

    def kill_hook(state):
        if state.cycle == kill_at:
            raise SimulatedCrash(f"simulated crash after cycle {state.cycle}")

    try:
        with use_metrics(metrics):
            runner = build_runner()
            try:
                runner.run(truth0, ensemble0, args.cycles, on_cycle=kill_hook)
                raise RuntimeError("kill hook never fired")  # pragma: no cover
            except SimulatedCrash as exc:
                print(f"{exc} (checkpoints at {runner.store.cycles()})")

            # Damage the newest checkpoint so resume exercises the failover
            # path: load_best must quarantine it and fall back one interval.
            newest = runner.store.latest()
            if len(runner.store.cycles()) > 1:
                victim = sorted(
                    runner.store.cycle_dir(newest).glob("member_*.bin")
                )[0]
                blob = bytearray(victim.read_bytes())
                blob[: min(64, len(blob))] = b"\xff" * min(64, len(blob))
                victim.write_bytes(bytes(blob))
                print(f"corrupted checkpoint {newest} ({victim.name})")
            else:
                print(
                    f"only one checkpoint on disk ({newest}); skipping the "
                    "corruption step so the resume has something to load"
                )

            runner = build_runner()
            result = runner.resume(args.cycles)
            report = runner.run_report(
                result,
                notes=[
                    f"simulated crash after cycle {kill_at}",
                    f"checkpoint {newest} corrupted before resume",
                ],
            )
    finally:
        filt.close()

    trace_path = out / "trace.json"
    write_chrome_trace(trace_path, tracer=tracer)
    report_path = out / "run_report.json"
    report.write(report_path)

    print(f"resumed and finished: {result.n_cycles} cycles, "
          f"mean analysis RMSE {result.mean_analysis_rmse(skip=2):.4f}")
    print(f"fault counts: {report.fault_counts}")
    print()
    print(render_phase_totals(tracer))
    print()
    rows = [
        (f"cycle {s.attrs['cycle']}", s.start, s.end)
        for s in tracer.spans
        if s.name == "cycle"
    ]
    print(gantt_chart(rows, title="cycle spans (wall clock)"))
    print()
    print(f"wrote {trace_path}  (open in Perfetto or chrome://tracing)")
    print(f"wrote {report_path}  (schema {report.schema})")
    return 0


#: the doctor's calibration campaign: an L sweep at fixed splits, so the
#: fitted constants face configurations whose contention factors match —
#: exactly the regime where Eqs. (7)–(9) are linear in the constants.
_DOCTOR_CLEAN_CONFIGS = (
    # (n_sdx, n_sdy, n_layers, n_cg)
    (4, 4, 3, 4),
    (4, 4, 5, 4),
    (4, 4, 9, 4),
    (4, 4, 15, 4),
)
_DOCTOR_CHAOS_CONFIG = (4, 4, 3, 4)


def _render_report(path, threshold: float = 0.15) -> int:
    """``doctor --report``: every panel a report artifact carries.

    Reads the JSON file and validates it against the spec its own
    ``schema`` id names (:mod:`repro.telemetry.schema`): a run report, a
    bare ``senkf-health/1`` payload, ...  Then renders each panel the
    payload carries — the supervision rollup, the health panel.  Exit
    status 1 when any tripwire fires: recovery spend above ``threshold``
    of the campaign's wall time, or a critical alert — the command
    doubles as a CI gate.
    """
    import json
    from pathlib import Path

    from repro.telemetry import render_health, render_supervision
    from repro.telemetry.schema import HEALTH_SCHEMA, validate

    payload = validate(json.loads(Path(path).read_text()))
    schema = payload["schema"]
    print(f"{path}: valid {schema}")
    tripped = []
    supervision = payload.get("supervision")
    if supervision is not None:
        print(render_supervision(supervision, threshold=threshold))
        if float(supervision.get("recovery_fraction", 0.0)) > threshold:
            tripped.append(
                f"recovery spend above {100 * threshold:.0f}% of wall time; "
                "inspect the fault regime or raise the budgets"
            )
    health = payload if schema == HEALTH_SCHEMA else payload.get("health")
    if health is not None:
        print(render_health(health))
        critical = sum(a["severity"] == "critical" for a in health["alerts"])
        if critical:
            tripped.append(
                f"{critical} critical alert(s) fired; "
                "inspect the filter configuration or the run's trace"
            )
    for message in tripped:
        print(message, file=sys.stderr)
    return 1 if tripped else 0


def _run_doctor_profile(args) -> int:
    """``senkf-experiments doctor --profile``: the resource observatory.

    Runs the CLI's fixed mini campaign twice — once bare as the
    bit-identity reference, once under the sampling profiler, the
    memory profiler and a two-worker fan-out (so pool-thread tracks land
    in the artifact) — then writes the flamegraph inputs (collapsed stacks
    + speedscope JSON), the schema-validated ``senkf-profile/2``
    artifact and a run report embedding it.  The panel prints the
    phase-attributed sample mix, the per-phase memory deltas and the
    predicted-vs-measured peak-RSS drift verdict.  Exit 1 when any
    acceptance check fails: profiling must not change a single bit of
    the analysis, >= 90 % of samples must attribute to known phases, and
    predicted peak RSS must join the measurement within 15 %.
    """
    from pathlib import Path

    import numpy as np

    from repro.core import radius_to_halo
    from repro.costmodel import CostParams, predicted_footprint_bytes
    from repro.telemetry import (
        PROFILE_SCHEMA,
        AlertEngine,
        MemoryProfiler,
        MetricsRegistry,
        RunReport,
        SamplingProfiler,
        Tracer,
        build_profile_report,
        default_memory_rules,
        footprint_attribution,
        publish_memory_gauges,
        use_metrics,
        use_profiler,
        use_tracer,
        write_profile_report,
    )
    from repro.util.timing import WallTimer

    out = Path(args.out or "doctor-out")
    out.mkdir(parents=True, exist_ok=True)
    n_cycles = max(2, args.cycles)

    def drive(twin, truth0, ensemble0, on_cycle=None):
        # TwinResult carries diagnostics only; the bit-identity check
        # needs the final ensemble, so drive the cycles by hand.
        state = twin.initial_state(truth0, ensemble0, track_free_run=False)
        seeds = twin.cycle_seeds()
        for _ in range(n_cycles):
            if on_cycle is None:
                state = twin.run_cycle(state, next(seeds))
            else:
                state = on_cycle(state, next(seeds))
        return state.states.copy()

    # Pass 1 — the uninstrumented reference this run must match bit-for-bit.
    twin, truth0, ensemble0, filt = _campaign_problem()
    try:
        reference = drive(twin, truth0, ensemble0)
    finally:
        filt.close()

    # Pass 2 — same campaign under the full observatory: ambient tracer
    # (phase attribution), sampling profiler (driver + pool threads),
    # memory profiler feeding the runaway alert engine every cycle.
    metrics = MetricsRegistry()
    tracer = Tracer()
    profiler = SamplingProfiler(interval=args.profile_interval)
    mem = MemoryProfiler()
    engine = AlertEngine(default_memory_rules())
    twin, truth0, ensemble0, filt = _campaign_problem(workers=2)
    with WallTimer() as timer:
        try:
            with use_tracer(tracer), use_metrics(metrics), \
                    use_profiler(profiler):
                mem.start()
                profiler.start()

                def profiled_cycle(state, seed):
                    with mem.phase("cycle"):
                        state = twin.run_cycle(state, seed)
                    engine.evaluate(state.cycle, mem.observe_cycle())
                    return state

                try:
                    profiled = drive(
                        twin, truth0, ensemble0, on_cycle=profiled_cycle
                    )
                finally:
                    profiler.stop()
                    mem.stop()
            geometry_bytes = float(filt.geometry.nbytes())
        finally:
            filt.close()

    memory_slice = mem.report()

    # Predicted footprint: the cost-model parameters of the exact
    # problem _campaign_problem builds (float64 fields, 2x2 ranks, no
    # layering or group concurrency on the real path), joined against
    # the measured peak.
    xi, eta = radius_to_halo(6.0, 2.5, 5.0)
    params = CostParams(
        n_x=24, n_y=12, n_members=16, h=8.0, xi=xi, eta=eta,
        a=0.0, b=0.0, c=0.0, theta=0.0,
    )
    components = predicted_footprint_bytes(
        params, n_sdx=2, n_sdy=2, n_layers=1, n_cg=1,
        geometry_cache_bytes=geometry_bytes,
    )
    footprint = footprint_attribution(
        components["total_bytes"],
        memory_slice["baseline_rss_bytes"],
        memory_slice["peak_rss_bytes"],
        components=components,
    )
    tm_peak = memory_slice["tracemalloc"]["peak_bytes"]
    publish_memory_gauges(
        metrics,
        geometry_cache_bytes=geometry_bytes,
        tracemalloc_peak=tm_peak,
    )

    identical = bool(np.array_equal(reference, profiled))
    sampler_slice = profiler.report(top=10)
    notes = [
        f"{n_cycles}-cycle P-EnKF mini campaign, fanned out over "
        f"2 workers, profiled at {profiler.interval * 1e3:.1f} ms",
        f"bit-identical to the unprofiled reference: "
        f"{'yes' if identical else 'NO'}",
        f"memory alerts fired: {len(engine.fired)}",
    ]
    payload = build_profile_report(
        sampler=sampler_slice, memory=memory_slice, footprint=footprint,
        notes=notes,
    )
    profile_path = write_profile_report(payload, out / "profile.json")
    collapsed_path = profiler.write_collapsed(out / "profile.collapsed")
    speedscope_path = profiler.write_speedscope(
        out / "profile.speedscope.json"
    )
    run_report = RunReport(
        kind="doctor-profile",
        config={
            "n_cycles": n_cycles,
            "workers": 2,
            "profile_interval": profiler.interval,
        },
        seeds={"master_seed": 3, "ensemble_seed": 7, "network_seed": 1},
        n_cycles=n_cycles,
        phase_totals=tracer.phase_totals(),
        metrics=metrics.snapshot(),
        diagnostics={"wall_seconds": [timer.elapsed]},
        notes=notes,
        profile=payload,
    )
    report_path = run_report.write(out / "run_report.json")

    def mb(x):
        return f"{x / 1e6:.1f} MB"

    frac = sampler_slice["attributed_fraction"]
    print("== resource observatory ==")
    print(
        f"sampler: {sampler_slice['n_samples']} samples over "
        f"{timer.elapsed:.2f} s on tracks "
        f"{', '.join(sorted(sampler_slice['tracks']))}"
    )
    print(
        f"  phase mix: "
        + "  ".join(
            f"{phase}={n}"
            for phase, n in sorted(sampler_slice["phase_samples"].items())
        )
        + f"   (attributed {frac:.1%})"
    )
    for line in profiler.collapsed().splitlines()[:5]:
        print(f"  {line}")
    print(
        f"memory: baseline {mb(memory_slice['baseline_rss_bytes'])} -> "
        f"peak {mb(memory_slice['peak_rss_bytes'])}"
        + (
            f", tracemalloc peak {mb(tm_peak)}"
            if tm_peak is not None else ", tracemalloc unavailable"
        )
    )
    for name, ph in sorted(memory_slice["phases"].items()):
        print(
            f"  phase {name}: x{ph['count']:.0f}, "
            f"rss {ph['rss_delta_bytes'] / 1e6:+.1f} MB, "
            f"tracemalloc {ph['tracemalloc_delta_bytes'] / 1e6:+.1f} MB"
        )
    rel = footprint["rel_error"]
    print(
        f"footprint: predicted peak "
        f"{mb(footprint['predicted_peak_rss_bytes'])} "
        f"(baseline + {footprint['predicted_increment_bytes']:.0f} B model "
        f"increment) vs measured {mb(footprint['measured_peak_rss_bytes'])}"
        + (f"  ({rel:+.1%})" if rel is not None else "")
    )
    for flag in footprint["drift_flags"]:
        print(f"  DRIFT {flag}")
    print(
        "memory alerts: "
        + (
            ", ".join(a.rule for a in engine.fired)
            if engine.fired else "none"
        )
    )
    print(
        "bit identity: profiled analysis "
        + ("matches" if identical else "DIVERGES from")
        + " the unprofiled reference"
    )
    print()
    print(f"wrote {profile_path}  (schema {PROFILE_SCHEMA})")
    print(f"wrote {collapsed_path}  (collapsed stacks; flamegraph input)")
    print(f"wrote {speedscope_path}  (open at speedscope.app)")
    print(f"wrote {report_path}  (schema {run_report.schema})")

    failures = []
    if not identical:
        failures.append("profiled run is not bit-identical to the reference")
    if sampler_slice["n_samples"] == 0:
        failures.append("sampler collected zero samples")
    elif frac < 0.90:
        failures.append(
            f"only {frac:.1%} of samples attributed to known phases (< 90%)"
        )
    if footprint["drift_flags"]:
        failures.append("predicted peak RSS drifted beyond 15% of measured")
    if engine.fired:
        failures.append(
            f"memory alert(s) fired: {', '.join(a.rule for a in engine.fired)}"
        )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def _run_doctor(args) -> int:
    """``senkf-experiments doctor``: observe → calibrate → attribute.

    Runs a short traced simulated campaign (an L sweep plus one chaos
    cycle under disk faults), fits ``a, b, c, θ`` from the measured span
    durations, prints the predicted-vs-measured attribution dashboard
    with drift flags, and writes the schema-validated ``attribution.json``
    and a :class:`~repro.telemetry.RunReport` embedding it; exit 0 once
    both are written.  Two other
    modes: ``--report PATH`` validates an existing report artifact and
    renders every panel it carries (:func:`_render_report`), and
    ``--profile`` runs the resource observatory over a *real* profiled
    campaign (:func:`_run_doctor_profile`).
    """
    if args.report:
        return _render_report(args.report)
    if args.profile:
        return _run_doctor_profile(args)

    from pathlib import Path

    from repro.cluster.params import MachineSpec
    from repro.costmodel import fit_constants
    from repro.faults import FaultSchedule, RetryPolicy
    from repro.filters.base import PerfScenario
    from repro.filters.senkf import simulate_senkf
    from repro.telemetry import (
        MetricsRegistry,
        RunReport,
        attribute_sim_reports,
    )
    from repro.tuning import read_inflation_from_schedule

    out = Path(args.out or "doctor-out")
    out.mkdir(parents=True, exist_ok=True)
    spec = MachineSpec.small_cluster()
    scenario = PerfScenario.small()
    template = scenario.cost_params(spec)
    faults = FaultSchedule(
        seed=args.fault_seed, disk_fault_rate=args.doctor_fault_rate
    )
    retry = RetryPolicy()
    metrics = MetricsRegistry()
    cycle_seconds = metrics.histogram("doctor.cycle_seconds")

    clean_reports = []
    for cfg in _DOCTOR_CLEAN_CONFIGS:
        report = simulate_senkf(spec, scenario, *cfg)
        clean_reports.append(report)
        cycle_seconds.observe(report.total_time)
        metrics.counter("doctor.cycles").inc()
    chaos_report = simulate_senkf(
        spec, scenario, *_DOCTOR_CHAOS_CONFIG, faults=faults, retry=retry
    )
    cycle_seconds.observe(chaos_report.total_time)
    metrics.counter("doctor.cycles").inc()
    metrics.counter("doctor.chaos_retries").inc(
        chaos_report.resilience.retries
    )

    fit = fit_constants(clean_reports, template)
    inflation = read_inflation_from_schedule(faults, retry)
    attribution = attribute_sim_reports(
        clean_reports + [chaos_report],
        fit.params,
        fit=fit,
        metrics=metrics.snapshot(),
        notes=[
            f"cycles 0..{len(clean_reports) - 1}: fault-free L sweep "
            f"(calibration set)",
            f"cycle {len(clean_reports)}: disk_fault_rate="
            f"{faults.disk_fault_rate} (seed {faults.seed})",
            f"expected read inflation {inflation:.3f} "
            f"(tuning-side factor; retries are broken out, not folded "
            f"into the read prediction)",
        ],
    )

    print(attribution.ascii_table())
    print()

    attribution_path = attribution.write(out / "attribution.json")
    run_report = RunReport(
        kind="doctor",
        config={
            "spec": "small_cluster",
            "scenario": "small",
            "clean_configs": [list(c) for c in _DOCTOR_CLEAN_CONFIGS],
            "chaos_config": list(_DOCTOR_CHAOS_CONFIG),
            "disk_fault_rate": faults.disk_fault_rate,
        },
        seeds={"fault_seed": faults.seed},
        n_cycles=len(clean_reports) + 1,
        fault_counts=chaos_report.resilience.summary(),
        phase_totals={
            p.phase: p.measured for p in attribution.aggregate()
        },
        metrics=metrics.snapshot(),
        diagnostics={
            "cycle_makespan": [
                r.total_time for r in clean_reports + [chaos_report]
            ],
        },
        notes=list(attribution.notes),
        attribution=attribution.to_dict(),
    )
    report_path = run_report.write(out / "run_report.json")

    print(f"wrote {attribution_path}  (schema {attribution.schema})")
    print(f"wrote {report_path}  (schema {run_report.schema})")
    drifted = attribution.drift_flags()
    if drifted:
        print(f"{len(drifted)} drift flag(s) raised", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="senkf-experiments",
        description="Regenerate the S-EnKF paper's evaluation figures "
                    "(PPoPP'19) on the simulated machine.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=["all"],
        help="figure ids (fig01 fig05 fig09 fig10 fig11 fig12 fig13), "
             "'all', 'scorecard', 'campaign', 'trace', or 'doctor'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale (0.1°, N=120, up to 12,000 ranks; slow)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also draw each figure as a terminal chart",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="write each figure's data as CSV + JSON into DIR",
    )
    campaign = parser.add_argument_group("campaign (checkpointed reanalysis)")
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="resume the campaign from its newest complete checkpoint",
    )
    campaign.add_argument(
        "--cycles", type=int, default=12, help="total campaign cycles"
    )
    campaign.add_argument(
        "--interval", type=int, default=3, help="checkpoint every K cycles"
    )
    campaign.add_argument(
        "--dir",
        default="campaign-checkpoints",
        help="campaign checkpoint directory",
    )
    campaign.add_argument(
        "--kill-at",
        type=int,
        default=None,
        metavar="CYCLE",
        help="simulate a crash after this cycle completes",
    )
    campaign.add_argument(
        "--supervise",
        action="store_true",
        help="run the campaign under supervise(): bounded "
             "auto-restarts from the latest good checkpoint",
    )
    campaign.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        metavar="N",
        help="restart budget of the supervised campaign (default 3)",
    )
    trace = parser.add_argument_group("trace (instrumented chaos campaign)")
    trace.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default: trace-out for trace, doctor-out "
             "for doctor)",
    )
    trace.add_argument(
        "--fault-seed",
        type=int,
        default=11,
        help="seed of the deterministic fault schedule",
    )
    doctor = parser.add_argument_group(
        "doctor (cost-model attribution, resource observatory, report panels)"
    )
    doctor.add_argument(
        "--doctor-fault-rate",
        type=float,
        default=0.15,
        metavar="RATE",
        help="disk fault rate of the doctor's chaos cycle (default 0.15)",
    )
    doctor.add_argument(
        "--profile",
        action="store_true",
        help="run the resource observatory instead: profile a real "
             "two-worker campaign (flamegraph + per-phase memory + "
             "peak-RSS drift verdict); exit 1 when any acceptance check "
             "fails",
    )
    doctor.add_argument(
        "--profile-interval",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="sampling interval of doctor --profile (default 0.002)",
    )
    doctor.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="validate a report artifact by its schema id and render "
             "every panel it carries: supervision, health (exit 1 when "
             "recovery spend exceeds 15%% of wall time or a critical "
             "alert fired)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="W",
        help="fan campaign/trace local analyses over W workers "
             "(bit-identical at any worker count)",
    )
    args = parser.parse_args(argv)

    config = default_config(full=args.full or None)
    names = args.figures
    if "campaign" in names:
        return _run_campaign(args)
    if "trace" in names:
        return _run_trace(args)
    if "doctor" in names:
        return _run_doctor(args)
    if "scorecard" in names:
        from repro.experiments.scorecard import format_scorecard, run_scorecard

        rows, _ = run_scorecard(config)
        print(format_scorecard(rows))
        return 0 if all(r["outcome"] == "PASS" for r in rows) else 1
    if "all" in names:
        names = sorted(FIGURES)

    from repro.util.timing import WallTimer

    all_passed = True
    with WallTimer() as timer:
        for name in names:
            try:
                runner = get_figure(name)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                return 2
            result = runner(config)
            print(format_result(result))
            if args.export:
                from repro.experiments.export import export_result

                for path in export_result(result, args.export):
                    print(f"wrote {path}")
            if args.plot:
                from repro.experiments.asciiplot import plot_figure

                print()
                print(plot_figure(result))
            print(f"  [{name}: {timer.lap():.2f}s]")
            print()
            all_passed &= result.passed
    if len(names) > 1:
        print(f"total: {sum(timer.laps):.2f}s over {len(names)} figures")
    return 0 if all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
