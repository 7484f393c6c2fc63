"""Acceptance test: one traced chaos campaign -> one coherent Chrome trace.

A faulty, checkpointed twin campaign is crashed mid-flight, its newest
checkpoint is corrupted on disk, and the campaign is resumed under an
injected tracer.  The single exported trace must show every layer of the
stack — fault retries, checkpoint failover, checkpoint commits and
filter analyses — with the spans nested correctly.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import CampaignRunner, SimulatedCrash
from repro.core import Decomposition, Grid, ObservationNetwork, radius_to_halo
from repro.faults import FaultSchedule
from repro.filters import DistributedEnKF
from repro.models import AdvectionDiffusionModel, TwinExperiment, correlated_ensemble
from repro.telemetry import (
    MetricsRegistry,
    RunReport,
    Tracer,
    spans_from_chrome,
    use_metrics,
    validate_run_report,
    write_chrome_trace,
)

N_CYCLES = 8
INTERVAL = 2
KILL_AT = 5  # checkpoints 2 and 4 exist; corrupt 4, fail over to 2


def tiny_problem():
    grid = Grid(n_x=16, n_y=8, dx_km=2.5, dy_km=5.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    radius_km = 6.0
    xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=1, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=24, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = DistributedEnKF(radius_km=radius_km, inflation=1.05, ridge=1e-2)
    twin = TwinExperiment(
        model,
        network,
        lambda states, y, rng: filt.assimilate(decomp, states, network, y, rng=rng),
        steps_per_cycle=3,
        master_seed=3,
    )
    rng = np.random.default_rng(7)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=10.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, 8, length_scale_km=10.0, mean=np.zeros(grid.n), std=0.8, rng=rng
    )
    return twin, truth0, ensemble0


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    """Run the chaos scenario once; share (tracer, runner, result, trace path)."""
    ckpt_dir = tmp_path_factory.mktemp("ckpt")
    out_dir = tmp_path_factory.mktemp("out")
    twin, truth0, ensemble0 = tiny_problem()
    # member_fault_rate high enough that retries deterministically fire
    # across the resume's member reads (schedule is pure in (seed, site)).
    faults = FaultSchedule(seed=11, member_fault_rate=0.3, member_fault_attempts=1)
    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)

    def make_runner():
        return CampaignRunner(
            twin,
            ckpt_dir,
            interval=INTERVAL,
            faults=faults,
            config={"experiment": "traced-chaos"},
            tracer=tracer,
        )

    def kill(state):
        if state.cycle == KILL_AT:
            raise SimulatedCrash("test kill")

    with use_metrics(metrics):
        runner = make_runner()
        with pytest.raises(SimulatedCrash):
            runner.run(truth0.copy(), ensemble0.copy(), N_CYCLES, on_cycle=kill)
        assert runner.store.cycles() == [2, 4]

        # corrupt the newest checkpoint so resume must fail over to cycle 2
        victim = sorted(runner.store.cycle_dir(4).glob("member_*.bin"))[0]
        victim.write_bytes(b"\xff" * victim.stat().st_size)

        runner = make_runner()
        result = runner.resume(N_CYCLES)
        report = runner.run_report(result, notes=["chaos acceptance"])
    trace_path = write_chrome_trace(out_dir / "trace.json", tracer=tracer)
    return tracer, runner, result, report, trace_path


class TestTracedChaosCampaign:
    def test_campaign_completes_despite_chaos(self, traced_campaign):
        _, runner, result, _, _ = traced_campaign
        assert result.n_cycles == N_CYCLES
        # the corrupted checkpoint was quarantined for forensics (resume
        # later re-commits a fresh cycle-4 checkpoint in its place)
        quarantined = list(runner.store.directory.glob("*.corrupt*"))
        assert len(quarantined) == 1
        assert quarantined[0].name.startswith(runner.store.cycle_dir(4).name)

    def test_all_span_families_in_one_trace(self, traced_campaign):
        _, _, _, _, trace_path = traced_campaign
        names = {s.name for s in spans_from_chrome(trace_path)}
        for expected in (
            "fault.retry",          # transient read faults were retried
            "checkpoint.failover",  # the corrupt checkpoint was skipped
            "checkpoint.save",
            "checkpoint.stage",
            "checkpoint.commit",
            "checkpoint.load",
            "checkpoint.verify",
            "cycle",
            "cycle.analysis",
            "filter.assimilate",
            "store.read_member",
            "store.write_member",
            "campaign.drive",
        ):
            assert expected in names, f"span {expected!r} missing from trace"

    def test_span_nesting_is_correct(self, traced_campaign):
        _, _, _, _, trace_path = traced_campaign
        spans = spans_from_chrome(trace_path)
        by_id = {s.span_id: s for s in spans}

        def parent_name(span):
            return by_id[span.parent_id].name if span.parent_id else None

        for span in spans:
            if span.name == "cycle":
                assert parent_name(span) == "campaign.drive"
            elif span.name == "cycle.analysis":
                assert parent_name(span) == "cycle"
            elif span.name == "filter.assimilate":
                assert parent_name(span) == "cycle.analysis"
            elif span.name in ("checkpoint.stage", "checkpoint.commit"):
                assert parent_name(span) == "checkpoint.save"
            elif span.name == "checkpoint.verify":
                assert parent_name(span) == "checkpoint.load"
            elif span.name == "checkpoint.failover":
                assert parent_name(span) is None  # load_best has no parent
            # every parent reference resolves and encloses its child
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start + 1e-9
                assert span.end <= parent.end + 1e-9

    def test_retries_really_fired(self, traced_campaign):
        tracer, runner, _, _, _ = traced_campaign
        retries = [s for s in tracer.spans if s.name == "fault.retry"]
        assert retries, "fault schedule injected no transient read faults"
        assert runner.report.summary()["faults_injected"] > 0

    def test_failover_span_names_the_corrupt_cycle(self, traced_campaign):
        tracer, _, _, _, _ = traced_campaign
        (failover,) = [s for s in tracer.spans if s.name == "checkpoint.failover"]
        assert failover.attrs["cycle"] == 4
        assert failover.attrs["quarantined"] is True

    def test_run_report_validates_and_round_trips(self, traced_campaign, tmp_path):
        _, _, result, report, _ = traced_campaign
        payload = json.loads(report.to_json())
        validate_run_report(payload)
        assert payload["kind"] == "twin-campaign"
        assert payload["n_cycles"] == N_CYCLES
        assert payload["seeds"]["fault_seed"] == 11
        assert payload["fault_counts"]["faults_injected"] > 0
        assert set(payload["phase_totals"]) >= {"checkpoint", "cycle", "filter"}
        assert payload["metrics"]["counters"]["checkpoint.loads"] >= 1
        assert (
            payload["diagnostics"]["analysis_rmse"]
            == pytest.approx(result.analysis_rmse)
        )
        restored = RunReport.from_dict(payload)
        assert restored.seeds == payload["seeds"]

    def test_resume_matches_uninterrupted_run(self, traced_campaign, tmp_path):
        """Tracing must not perturb the determinism contract."""
        _, _, result, _, _ = traced_campaign
        twin, truth0, ensemble0 = tiny_problem()
        faults = FaultSchedule(
            seed=11, member_fault_rate=0.3, member_fault_attempts=1
        )
        clean = CampaignRunner(
            twin, tmp_path / "ref", interval=INTERVAL, faults=faults
        ).run(truth0, ensemble0, N_CYCLES)
        assert result.analysis_rmse == pytest.approx(clean.analysis_rmse)


class TestTraceCli:
    def test_trace_writes_a_valid_report_and_every_span_family(
        self, tmp_path
    ):
        """``senkf-experiments trace`` stages the same story from the
        command line: its two artifacts on disk are a valid run report
        and a Chrome trace carrying retry, failover, commit and analysis
        spans."""
        from repro.experiments.cli import main

        out = tmp_path / "trace-out"
        assert main(["trace", "--out", str(out)]) == 0
        validate_run_report(json.loads((out / "run_report.json").read_text()))
        names = {s.name for s in spans_from_chrome(out / "trace.json")}
        assert names >= {"fault.retry", "checkpoint.failover",
                         "checkpoint.save", "cycle.analysis"}


class TestDisabledOverhead:
    def test_untraced_runner_records_nothing(self, tmp_path):
        from repro.telemetry import NULL_TRACER, get_tracer

        twin, truth0, ensemble0 = tiny_problem()
        runner = CampaignRunner(twin, tmp_path / "ckpt", interval=2)
        runner.run(truth0, ensemble0, 2)
        assert get_tracer() is NULL_TRACER
        report = runner.run_report()
        assert report.phase_totals == {}
        assert report.metrics == {}
