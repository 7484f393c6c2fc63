"""Supervised campaigns: recovery is checkpoint-restart.

The contract under test: *no matter how often the campaign process
crashes, a supervised run completes with results bit-identical to the
uninterrupted reference* — under the serial loop and under the thread
fan-out alike — and its recovery rollup rides in the run report.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import CampaignRunner, SimulatedCrash
from repro.core import Decomposition, Grid, ObservationNetwork
from repro.experiments.cli import main
from repro.faults import RetryPolicy
from repro.models import correlated_ensemble
from repro.telemetry import RunReport, validate_run_report

def _campaign(tmp_path, name, strategy=None):
    """A tiny real campaign over the shared fixture problem."""
    from repro.filters import PEnKF
    from repro.models import AdvectionDiffusionModel, TwinExperiment

    grid = Grid(n_x=16, n_y=8, dx_km=2.5, dy_km=5.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    rng = np.random.default_rng(7)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=12.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, 12, length_scale_km=12.0, mean=np.zeros(grid.n), std=0.8,
        rng=rng,
    )
    net = ObservationNetwork.random(
        grid, m=40, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=2, eta=1)
    filt = PEnKF(radius_km=6.0, inflation=1.05, ridge=1e-2,
                 strategy=strategy, workers=2 if strategy else None)
    twin = TwinExperiment(
        model,
        net,
        lambda states, y, rng: filt.assimilate(
            decomp, states, net, y, rng=rng
        ),
        steps_per_cycle=3,
        master_seed=5,
    )
    runner = CampaignRunner(
        twin, tmp_path / name, interval=1,
        config={"experiment": "test-supervise"},
    )
    return runner, truth0, ensemble0


class TestCampaignSupervise:
    N_CYCLES = 4

    def test_restart_after_crash_and_corruption_is_bit_identical(
        self, tmp_path
    ):
        """SimulatedCrash mid-campaign + a corrupted newest checkpoint:
        supervise() quarantines, fails over, restarts once and finishes
        with the exact serial-reference ensemble."""
        ref_runner, truth0, ensemble0 = _campaign(tmp_path, "ref")
        ref_runner.run(truth0, ensemble0, self.N_CYCLES)
        ref_final = ref_runner.store.load(self.N_CYCLES).ensemble

        runner, truth0, ensemble0 = _campaign(tmp_path, "supervised")
        fired = []

        def kill_once(state):
            if state.cycle == 3 and not fired:
                fired.append(state.cycle)
                raise SimulatedCrash("boom after cycle 3")

        def corrupt_newest(restart, exc):
            # Damage the newest checkpoint before the restart resumes, so
            # load_best must quarantine it and fail over one interval.
            newest = runner.store.latest()
            victim = sorted(
                runner.store.cycle_dir(newest).glob("member_*.bin")
            )[0]
            blob = bytearray(victim.read_bytes())
            blob[:64] = b"\xff" * 64
            victim.write_bytes(bytes(blob))

        slept = []
        result = runner.supervise(
            truth0, ensemble0, self.N_CYCLES,
            max_restarts=2, on_cycle=kill_once, on_restart=corrupt_newest,
            sleep=slept.append,
        )
        assert result.n_cycles == self.N_CYCLES
        report = runner.supervision
        assert report is not None
        assert report.restarts == 1
        assert report.max_restarts == 2
        assert report.restart_errors == ["SimulatedCrash: boom after cycle 3"]
        assert slept and report.backoff_seconds == pytest.approx(sum(slept))
        final = runner.store.load(self.N_CYCLES).ensemble
        assert np.array_equal(ref_final, final)

    def test_supervised_thread_campaign_matches_serial(self, tmp_path):
        """Thread fan-out inside a supervised campaign: a crash burns a
        restart, the resumed run fans out again, and the final ensemble
        is the serial reference's bit for bit."""
        ref_runner, truth0, ensemble0 = _campaign(tmp_path, "ref")
        ref_runner.run(truth0, ensemble0, 3)
        ref_final = ref_runner.store.load(3).ensemble

        runner, truth0, ensemble0 = _campaign(
            tmp_path, "threaded", strategy="thread"
        )
        fired = []

        def kill_once(state):
            if state.cycle == 2 and not fired:
                fired.append(state.cycle)
                raise SimulatedCrash("boom after cycle 2")

        # The default 50 ms backoff is sized for campaigns of minutes; on
        # this sub-second one it alone would trip doctor's 15 % flag.
        result = runner.supervise(
            truth0, ensemble0, 3, max_restarts=1, on_cycle=kill_once,
            backoff=RetryPolicy(max_retries=1, base_delay=0.001),
        )
        assert result.n_cycles == 3
        assert runner.supervision.restarts == 1
        assert np.array_equal(ref_final, runner.store.load(3).ensemble)
        # Its run report passes doctor's supervision gate.
        path = runner.run_report(result).write(tmp_path / "run_report.json")
        assert main(["doctor", "--report", str(path)]) == 0

    def test_budget_exhaustion_reraises_with_report(self, tmp_path):
        runner, truth0, ensemble0 = _campaign(tmp_path, "doomed")

        def always_crash(state):
            raise SimulatedCrash("sticky crash")

        with pytest.raises(SimulatedCrash):
            runner.supervise(
                truth0, ensemble0, self.N_CYCLES,
                max_restarts=1, on_cycle=always_crash, sleep=lambda s: None,
            )
        report = runner.supervision
        assert report is not None
        assert report.restarts == 1
        assert len(report.restart_errors) == 2  # initial + failed restart

    def test_non_restartable_errors_stay_fatal(self, tmp_path):
        runner, truth0, ensemble0 = _campaign(tmp_path, "fatal")

        def programming_error(state):
            raise ValueError("a bug, not an outage")

        with pytest.raises(ValueError):
            runner.supervise(
                truth0, ensemble0, self.N_CYCLES,
                max_restarts=3, on_cycle=programming_error,
                sleep=lambda s: None,
            )

    def test_run_report_embeds_supervision(self, tmp_path):
        runner, truth0, ensemble0 = _campaign(tmp_path, "reported")
        result = runner.supervise(
            truth0, ensemble0, 2, max_restarts=1, sleep=lambda s: None
        )
        report = runner.run_report(result)
        payload = validate_run_report(json.loads(report.to_json()))
        assert set(payload["supervision"]) == {
            "max_restarts", "restarts", "restart_errors", "backoff_seconds",
            "wall_seconds", "recovery_fraction",
        }
        assert payload["supervision"]["restarts"] == 0
        assert payload["supervision"]["recovery_fraction"] >= 0.0
        rebuilt = RunReport.from_dict(payload)
        assert rebuilt.supervision == payload["supervision"]


class TestRunReportSupervisionField:
    def test_absent_supervision_still_validates(self):
        payload = RunReport(kind="twin-campaign").to_dict()
        assert validate_run_report(payload)["supervision"] is None

    def test_wrong_type_rejected(self):
        payload = RunReport(kind="twin-campaign").to_dict()
        payload["supervision"] = [1, 2]
        with pytest.raises(ValueError, match="supervision"):
            validate_run_report(payload)
