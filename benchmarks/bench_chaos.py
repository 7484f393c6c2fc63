"""Chaos bench: S-EnKF makespan and resilience posture under fault sweeps.

Runs the fault-aware S-EnKF simulator across a sweep of disk-fault rates
plus targeted scenarios (storage slowdown, straggler compute rank, killed
I/O processor with failover) and reports the injected-fault counts, retry
spend, member drops and the slowdown each scenario causes relative to the
clean run.  Doubles as an acceptance check:

* a zero-fault schedule reproduces the clean makespan bit-for-bit;
* a 5 %-disk-fault run with one killed I/O rank completes via failover
  within 2x the clean makespan;
* every chaos run with the same seed is deterministic.

``--supervision-smoke`` runs the supervised-campaign acceptance instead:
a checkpointed numpy campaign with the thread fan-out under
:meth:`~repro.checkpoint.runner.CampaignRunner.supervise`, taken down by
a mid-flight ``SimulatedCrash``.  The restarted result must be
bit-identical to an unsupervised serial run; the run report records the
recovery overhead (wall seconds, recovery fraction).

Usable three ways: under pytest (``test_chaos_sweep``,
``test_supervision_smoke``), as a pytest-benchmark case, and as a CLI
for CI smoke runs::

    python benchmarks/bench_chaos.py --smoke
    python benchmarks/bench_chaos.py --rates 0.02 0.05 0.1 0.2
    python benchmarks/bench_chaos.py --supervision-smoke --out sup-out
"""

import argparse
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # CLI use without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import MachineSpec
from repro.faults import FaultSchedule, RetryPolicy
from repro.filters.base import PerfScenario
from repro.filters.senkf import simulate_senkf

SEED = 2019  # PPoPP'19


def chaos_setup(smoke: bool):
    """(spec, scenario, senkf kwargs) — tiny for smoke, small otherwise."""
    if smoke:
        spec = MachineSpec(
            alpha=1e-5, beta=1e-9, theta=5e-9, c_point=1e-5,
            seek_time=1e-3, n_storage_nodes=4, disk_concurrency=4,
        )
        scenario = PerfScenario(
            n_x=48, n_y=24, n_members=8, h_bytes=240, xi=2, eta=1
        )
        kwargs = dict(n_sdx=4, n_sdy=3, n_layers=2, n_cg=2)
    else:
        spec = MachineSpec.small_cluster()
        scenario = PerfScenario.small()
        kwargs = dict(n_sdx=6, n_sdy=3, n_layers=3, n_cg=2)
    return spec, scenario, kwargs


def run_chaos_sweep(rates=(0.02, 0.05, 0.1, 0.2), smoke=False):
    """Run the sweep; return (rows, clean_makespan) and assert acceptance."""
    spec, scenario, kwargs = chaos_setup(smoke)
    retry = RetryPolicy(max_retries=8)
    clean = simulate_senkf(spec, scenario, **kwargs)
    n_compute = kwargs["n_sdx"] * kwargs["n_sdy"]
    kill_rank = n_compute + 1  # second I/O rank of the first group
    # Crash mid-way through the victim's clean busy window so there is
    # genuinely unfinished work for the failover peer to adopt.
    busy = clean.timeline.intervals(ranks=[kill_rank])
    kill_at = (min(s for s, _ in busy) + max(e for _, e in busy)) / 2

    scenarios = [("clean", None)]
    scenarios.append(("zero-fault schedule", FaultSchedule(SEED)))
    for rate in rates:
        scenarios.append(
            (f"disk faults {rate:.0%}", FaultSchedule(SEED, disk_fault_rate=rate))
        )
    scenarios.append(
        (
            "disk slowdown 20% x4",
            FaultSchedule(SEED, disk_slowdown_rate=0.2, disk_slowdown_factor=4.0),
        )
    )
    scenarios.append(
        ("straggler rank 0 x4", FaultSchedule(SEED, stragglers=((0, 4.0),)))
    )
    scenarios.append(
        (
            "disk 5% + killed I/O rank",
            FaultSchedule(
                SEED,
                disk_fault_rate=0.05,
                killed_ranks=((kill_rank, kill_at),),
            ),
        )
    )

    rows = []
    for name, sched in scenarios:
        report = simulate_senkf(
            spec, scenario, **kwargs, faults=sched, retry=retry
        )
        res = report.resilience
        if res is not None:
            res.finalize(report.total_time, clean.total_time)
        rows.append(
            {
                "name": name,
                "makespan": report.total_time,
                "slowdown": report.total_time / clean.total_time,
                "faults": 0 if res is None else res.faults_injected,
                "retries": 0 if res is None else res.retries,
                "dropped": 0 if res is None else len(res.members_dropped),
                "failovers": 0 if res is None else res.failovers,
            }
        )

    by_name = {r["name"]: r for r in rows}
    # Acceptance: the zero-fault schedule must not perturb the simulator.
    assert by_name["zero-fault schedule"]["makespan"] == clean.total_time
    # Acceptance: kill + 5% faults completes via failover within 2x clean.
    kill_row = by_name["disk 5% + killed I/O rank"]
    assert kill_row["failovers"] >= 1
    assert kill_row["slowdown"] <= 2.0, kill_row
    # Determinism: replaying the kill scenario reproduces the makespan.
    replay = simulate_senkf(
        spec, scenario, **kwargs, faults=scenarios[-1][1], retry=retry
    )
    assert replay.total_time == kill_row["makespan"]
    return rows, clean.total_time


def format_rows(rows):
    header = (
        f"  {'scenario':<28} {'makespan(s)':>12} {'slowdown':>9} "
        f"{'faults':>7} {'retries':>8} {'dropped':>8} {'failovers':>10}"
    )
    lines = [header]
    for r in rows:
        lines.append(
            f"  {r['name']:<28} {r['makespan']:12.5f} {r['slowdown']:9.3f} "
            f"{r['faults']:7d} {r['retries']:8d} {r['dropped']:8d} "
            f"{r['failovers']:10d}"
        )
    return "\n".join(lines)


def _supervised_campaign_problem(strategy=None):
    """Tiny real-numpy campaign: 4x2 decomposition -> 8 pool pieces."""
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

    grid = Grid(n_x=16, n_y=8, dx_km=2.5, dy_km=5.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    radius_km = 6.0
    xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=40, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = PEnKF(radius_km=radius_km, inflation=1.05, ridge=1e-2,
                 strategy=strategy, workers=2 if strategy else None)
    twin = TwinExperiment(
        model,
        network,
        lambda states, y, rng: filt.assimilate(
            decomp, states, network, y, rng=rng
        ),
        steps_per_cycle=3,
        master_seed=5,
    )
    rng = np.random.default_rng(7)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=12.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, 12, length_scale_km=12.0, mean=np.zeros(grid.n), std=0.8, rng=rng
    )
    return twin, truth0, ensemble0, filt


def run_supervision_smoke(out_dir, n_cycles=4, interval=2):
    """Supervised campaign with a crash; returns the SupervisionReport.

    Acceptance (asserted): under the thread strategy with one mid-flight
    :class:`SimulatedCrash`, ``CampaignRunner.supervise`` restarts once
    from the newest checkpoint and completes the campaign with a final
    checkpoint ensemble bit-identical to an unsupervised serial run.
    """
    import json

    import numpy as np

    from repro.checkpoint import CampaignRunner, SimulatedCrash
    from repro.telemetry import (
        MetricsRegistry,
        render_supervision,
        use_metrics,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Reference: the same campaign, serial strategy, no supervision.
    twin, truth0, ensemble0, filt = _supervised_campaign_problem()
    try:
        serial_runner = CampaignRunner(
            twin, out / "serial-ckpt", interval=interval,
            config={"experiment": "supervision-smoke", "mode": "serial"},
        )
        serial_runner.run(truth0, ensemble0, n_cycles)
    finally:
        filt.close()
    serial_final = serial_runner.store.load(n_cycles).ensemble

    # Supervised run: thread fan-out, one campaign crash.
    twin, truth0, ensemble0, filt = _supervised_campaign_problem("thread")
    fired = []

    def kill_once(state):
        if state.cycle == interval and not fired:
            fired.append(state.cycle)
            raise SimulatedCrash(
                f"simulated crash after cycle {state.cycle}"
            )

    metrics = MetricsRegistry()
    try:
        with use_metrics(metrics):
            runner = CampaignRunner(
                twin, out / "supervised-ckpt", interval=interval,
                config={"experiment": "supervision-smoke",
                        "mode": "supervised"},
            )
            # The default 50 ms restart backoff is sized for campaigns
            # of minutes; on this quarter-second one it alone would trip
            # the 15 % recovery-fraction flag.
            result = runner.supervise(
                truth0, ensemble0, n_cycles, max_restarts=2,
                backoff=RetryPolicy(max_retries=2, base_delay=0.005),
                on_cycle=kill_once,
            )
    finally:
        filt.close()

    supervised_final = runner.store.load(n_cycles).ensemble
    report = runner.supervision

    # Acceptance: bit-identical to serial, and the restart genuinely fired.
    assert np.array_equal(serial_final, supervised_final), \
        "supervised campaign diverged from the serial reference"
    assert result.n_cycles == n_cycles
    assert fired and report.restarts == 1, report.to_dict()

    run_report = runner.run_report(result, notes=[
        "supervision smoke: thread fan-out, 2 workers",
        f"simulated crash after cycle {interval}",
    ])
    report_path = run_report.write(out / "run_report.json")
    # Persist the run's metrics snapshot beside the bench payload — the
    # restart counter and retry histograms are otherwise lost with the
    # registry when the process exits.
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(
        {
            "schema": "senkf-bench-metrics/1",
            "bench": "chaos-supervision",
            "metrics": metrics.snapshot(),
        },
        indent=2, sort_keys=True,
    ) + "\n")

    print(render_supervision(report.to_dict()))
    print(f"wrote {report_path}  (schema {run_report.schema})")
    print(f"wrote {metrics_path}  (metrics snapshot)")
    return report


def test_chaos_sweep():
    """Plain-pytest entry: smoke-scale sweep with the acceptance asserts."""
    rows, _ = run_chaos_sweep(rates=(0.05, 0.1), smoke=True)
    assert len(rows) == 7


def test_supervision_smoke(tmp_path):
    """Plain-pytest entry: the supervised-campaign acceptance."""
    report = run_supervision_smoke(tmp_path / "sup")
    assert report.recovery_fraction >= 0.0


def test_chaos_bench(benchmark, bench_telemetry):
    """pytest-benchmark entry used by the bench suite."""
    rows, clean = benchmark.pedantic(
        run_chaos_sweep, kwargs=dict(smoke=True), rounds=1, iterations=1
    )
    print()
    print(format_rows(rows))
    print(f"  clean makespan: {clean:.5f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny problem + short sweep (the CI configuration, < 30 s)",
    )
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        help="disk-fault rates to sweep (default 0.02 0.05 0.1 0.2)",
    )
    parser.add_argument(
        "--supervision-smoke",
        action="store_true",
        help="run the supervised-campaign acceptance (crash, restart, "
             "bit-identity) instead of the simulator sweep",
    )
    parser.add_argument(
        "--out",
        default="chaos-supervision",
        metavar="DIR",
        help="artifact directory of the supervision smoke "
             "(checkpoints + run_report.json)",
    )
    args = parser.parse_args(argv)
    if args.supervision_smoke:
        run_supervision_smoke(args.out)
        print("supervision acceptance: OK")
        return 0
    rates = args.rates if args.rates is not None else (
        (0.05, 0.1) if args.smoke else (0.02, 0.05, 0.1, 0.2)
    )
    rows, clean = run_chaos_sweep(rates=rates, smoke=args.smoke)
    print(format_rows(rows))
    print(f"  clean makespan: {clean:.5f} s")
    print("chaos acceptance: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
