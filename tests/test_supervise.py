"""Self-healing parallel analysis: supervision, retry, supervised campaigns.

The contract under test, end to end: *no matter which pool workers die
or wedge, and no matter how often the campaign process itself crashes, a
supervised run completes with results bit-identical to the serial
reference*.  Worker faults here are real — injected pool workers call
``os._exit`` / ``time.sleep`` — so the tests exercise the actual
``BrokenProcessPool`` detection, deadline expiry, pool respawn, piece
retry and serial-fallback machinery, not simulations of it.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import CampaignRunner, SimulatedCrash
from repro.core import Decomposition, Grid, ObservationNetwork
from repro.faults import FaultSchedule, RetryPolicy
from repro.filters.distributed import DistributedEnKF
from repro.models import correlated_ensemble
from repro.parallel import (
    AnalysisExecutor,
    DeadlinePolicy,
    SupervisionPolicy,
    piece_seconds_from_cost_model,
)
from repro.telemetry import RunReport, get_metrics, validate_run_report

N_PIECES = 8  # 4x2 decomposition below

#: a retry policy with near-zero wall-clock backoff, so recovery-path
#: tests don't spend their budget sleeping
FAST_RETRY = RetryPolicy(max_retries=1, base_delay=1e-4, max_delay=1e-3)


@pytest.fixture
def problem():
    grid = Grid(n_x=16, n_y=8, dx_km=1.0, dy_km=1.0)
    rng = np.random.default_rng(0)
    truth = correlated_ensemble(grid, 1, length_scale_km=4.0, rng=rng)[:, 0]
    states = truth[:, None] + correlated_ensemble(
        grid, 12, length_scale_km=4.0, rng=rng
    )
    net = ObservationNetwork.random(grid, m=40, obs_error_std=0.3, rng=rng)
    y = net.observe(truth, rng=rng)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=2, xi=2, eta=2)
    return states, net, y, decomp


def _serial_reference(problem, rng=13):
    states, net, y, decomp = problem
    filt = DistributedEnKF(radius_km=2.0, inflation=1.05)
    return filt.assimilate(decomp, states, net, y, rng=rng)


def _supervised_run(problem, faults, policy, rng=13):
    """One assimilation through a supervised 2-worker process pool."""
    states, net, y, decomp = problem
    with AnalysisExecutor(
        strategy="process", workers=2, supervision=policy, faults=faults
    ) as ex:
        filt = DistributedEnKF(radius_km=2.0, inflation=1.05, executor=ex)
        out = filt.assimilate(decomp, states, net, y, rng=rng)
        return out, ex.supervision_stats


def _crash_seed_for_piece(piece: int) -> int:
    """A seed whose only attempt-0 crash draw is ``piece`` (clean retries).

    The schedule is a pure function of ``(seed, site)``, so the search is
    a few thousand hash evaluations — no pools involved.
    """
    for seed in range(50_000):
        s = FaultSchedule(seed, worker_crash_rate=0.2)
        if not s.worker_crash(piece, 0):
            continue
        others = [p for p in range(N_PIECES) if p != piece]
        if any(s.worker_crash(p, 0) for p in others):
            continue
        if any(s.worker_crash(p, 1) for p in range(N_PIECES)):
            continue
        return seed
    raise AssertionError(f"no crash-only-piece-{piece} seed found")


def _hang_seed() -> int:
    """A seed with exactly one attempt-0 hang (its chunk clean at 1)."""
    for seed in range(50_000):
        s = FaultSchedule(seed, worker_hang_rate=0.2, worker_hang_seconds=5.0)
        hangs = [p for p in range(N_PIECES) if s.worker_hang(p, 0) > 0]
        if len(hangs) != 1:
            continue
        chunk = {hangs[0], hangs[0] ^ 1}  # chunk_size 2 -> partner is p^1
        if any(s.worker_hang(p, 1) > 0 for p in chunk):
            continue
        return seed
    raise AssertionError("no single-hang seed found")


class TestDeadlinePolicy:
    def test_floor_applies_before_any_estimate(self):
        policy = DeadlinePolicy(slack=4.0, floor_seconds=10.0)
        assert policy.deadline(8) == 10.0

    def test_observed_estimate_preferred_over_prediction(self):
        policy = DeadlinePolicy(
            slack=2.0, floor_seconds=0.1, predicted_piece_seconds=100.0
        )
        assert policy.deadline(4, observed_piece_seconds=1.0) == 8.0
        assert policy.deadline(4) == 800.0  # cold start: prediction

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(slack=0.5)
        with pytest.raises(ValueError):
            DeadlinePolicy(floor_seconds=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(predicted_piece_seconds=-1.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_respawns=-1)

    def test_cost_model_prediction_feeds_the_policy(self):
        from repro.cluster.params import MachineSpec
        from repro.filters.base import PerfScenario

        params = PerfScenario.small().cost_params(MachineSpec.small_cluster())
        predicted = piece_seconds_from_cost_model(params, 4, 4, 3)
        assert predicted > 0.0
        policy = DeadlinePolicy(
            slack=8.0, floor_seconds=1e-6, predicted_piece_seconds=predicted
        )
        assert policy.deadline(8) == pytest.approx(8.0 * predicted * 8)


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("piece", range(N_PIECES))
    def test_kill_at_every_piece_index_stays_bit_identical(
        self, problem, piece
    ):
        """A worker dying on any single piece: retried, bit-identical."""
        ref = _serial_reference(problem)
        faults = FaultSchedule(
            _crash_seed_for_piece(piece), worker_crash_rate=0.2
        )
        policy = SupervisionPolicy(max_respawns=2, retry=FAST_RETRY)
        out, stats = _supervised_run(problem, faults, policy)
        assert np.array_equal(ref, out)
        assert stats.worker_crashes >= 1
        assert stats.pool_respawns >= 1

    def test_crash_everything_falls_back_serial(self, problem):
        """rate=1.0: every attempt dies; the analysis still completes
        bit-identically via the serial fallback."""
        ref = _serial_reference(problem)
        faults = FaultSchedule(3, worker_crash_rate=1.0)
        policy = SupervisionPolicy(max_respawns=3, retry=FAST_RETRY)
        out, stats = _supervised_run(problem, faults, policy)
        assert np.array_equal(ref, out)
        assert stats.serial_fallback_pieces == N_PIECES
        assert stats.worker_crashes >= 2  # attempt 0 and the retry round

    def test_respawn_budget_exhaustion_degrades_whole_plan(self, problem):
        """max_respawns=0: the first crash degrades the remainder to the
        serial path — no raise, a warning metric, still bit-identical."""
        before = get_metrics().counter("parallel.degraded_serial").value
        ref = _serial_reference(problem)
        faults = FaultSchedule(3, worker_crash_rate=1.0)
        policy = SupervisionPolicy(
            max_respawns=0, retry=RetryPolicy(max_retries=5, base_delay=1e-4)
        )
        out, stats = _supervised_run(problem, faults, policy)
        assert np.array_equal(ref, out)
        assert stats.plan_degrades == 1
        assert stats.pool_respawns == 0
        assert stats.serial_fallback_pieces == N_PIECES
        after = get_metrics().counter("parallel.degraded_serial").value
        assert after == before + 1

    def test_clean_schedule_uses_no_recovery(self, problem):
        ref = _serial_reference(problem)
        policy = SupervisionPolicy(max_respawns=2, retry=FAST_RETRY)
        out, stats = _supervised_run(problem, None, policy)
        assert np.array_equal(ref, out)
        assert stats.worker_crashes == 0
        assert stats.piece_retries == 0


class TestWorkerHangRecovery:
    def test_hang_trips_deadline_then_recovers(self, problem):
        """A wedged worker (real 5 s sleep) is deadlined at the 0.2 s
        floor, the pool killed and respawned, and the retry completes
        bit-identically."""
        ref = _serial_reference(problem)
        faults = FaultSchedule(
            _hang_seed(), worker_hang_rate=0.2, worker_hang_seconds=5.0
        )
        policy = SupervisionPolicy(
            max_respawns=2,
            retry=FAST_RETRY,
            deadline=DeadlinePolicy(slack=1000.0, floor_seconds=0.2),
        )
        out, stats = _supervised_run(problem, faults, policy)
        assert np.array_equal(ref, out)
        assert stats.deadline_hits >= 1
        assert stats.pool_respawns >= 1
        assert stats.worker_crashes == 0


def _campaign(tmp_path, name, executor=None):
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
                 executor=executor)
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

    def test_supervised_worker_chaos_campaign_matches_serial(self, tmp_path):
        """The acceptance scenario at test scale: real worker crashes
        under the process strategy inside a supervised campaign."""
        ref_runner, truth0, ensemble0 = _campaign(tmp_path, "ref")
        ref_runner.run(truth0, ensemble0, 2)
        ref_final = ref_runner.store.load(2).ensemble

        faults = FaultSchedule(3, worker_crash_rate=1.0)
        executor = AnalysisExecutor(
            strategy="process", workers=2,
            supervision=SupervisionPolicy(max_respawns=1, retry=FAST_RETRY),
            faults=faults,
        )
        try:
            runner, truth0, ensemble0 = _campaign(
                tmp_path, "chaos", executor=executor
            )
            result = runner.supervise(
                truth0, ensemble0, 2, max_restarts=1, sleep=lambda s: None
            )
        finally:
            executor.close()
        assert result.n_cycles == 2
        report = runner.supervision
        assert report.restarts == 0  # executor self-healed; no restart
        assert report.worker_crashes >= 1
        assert report.serial_fallback_pieces >= 1
        final = runner.store.load(2).ensemble
        assert np.array_equal(ref_final, final)

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
