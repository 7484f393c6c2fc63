"""Tests for the checkpoint/restart subsystem (``repro.checkpoint``).

The headline guarantee, asserted exhaustively: kill the campaign after
*every* cycle boundary — and mid-checkpoint-write via ``FaultyStore`` —
resume, and the final analysis ensemble is byte-identical to an
uninterrupted run, under both zero-fault and chaos regimes.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import (
    CampaignRunner,
    CheckpointManifest,
    CheckpointStore,
    CorruptCheckpointError,
    NoCheckpointError,
    RetentionPolicy,
    ScheduleMismatchError,
    SimulatedCrash,
)
from repro.checkpoint.format import MANIFEST_NAME
from repro.core import Decomposition, Grid, ObservationNetwork, radius_to_halo
from repro.data import EnsembleStore
from repro.faults import (
    CorruptMemberError,
    FaultSchedule,
    FaultyStore,
    RetryPolicy,
    TransientIOError,
)
from repro.filters import DistributedEnKF
from repro.models import (
    AdvectionDiffusionModel,
    TwinExperiment,
    correlated_ensemble,
)

N_CYCLES = 8
INTERVAL = 3

# A chaos regime exercising checkpoint I/O on both sides: half the member
# writes die mid-file once, half the member reads fail transiently twice.
CHAOS = FaultSchedule(
    11,
    member_fault_rate=0.5,
    member_fault_attempts=2,
    member_write_fault_rate=0.5,
    member_write_attempts=1,
)


def make_twin():
    grid = Grid(n_x=12, n_y=6, dx_km=2.0, dy_km=4.0)
    model = AdvectionDiffusionModel(grid, u_max=1.0, kappa=0.05, dt=0.2)
    radius_km = 5.0
    xi, eta = radius_to_halo(radius_km, grid.dx_km, grid.dy_km)
    decomp = Decomposition(grid, n_sdx=2, n_sdy=1, xi=xi, eta=eta)
    network = ObservationNetwork.random(
        grid, m=10, obs_error_std=0.2, rng=np.random.default_rng(1)
    )
    filt = DistributedEnKF(radius_km=radius_km, inflation=1.05, ridge=1e-2)
    twin = TwinExperiment(
        model,
        network,
        lambda s, y, rng: filt.assimilate(decomp, s, network, y, rng=rng),
        steps_per_cycle=2,
        master_seed=3,
    )
    rng = np.random.default_rng(7)
    truth0 = correlated_ensemble(grid, 1, length_scale_km=8.0, rng=rng)[:, 0]
    ensemble0 = correlated_ensemble(
        grid, 5, length_scale_km=8.0, mean=np.zeros(grid.n), std=0.8, rng=rng
    )
    return twin, truth0, ensemble0


@pytest.fixture(scope="module")
def reference():
    """Final ensemble + diagnostics of the uninterrupted campaign."""
    twin, truth0, ensemble0 = make_twin()
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        runner = CampaignRunner(twin, d, interval=INTERVAL)
        result = runner.run(truth0, ensemble0, N_CYCLES)
        final = runner.store.load(N_CYCLES).ensemble
    return final, result


class TestTwinSteppingApi:
    def test_runner_matches_plain_twin_run(self, reference, tmp_path):
        """Interleaving checkpoints must not perturb the numerics at all."""
        twin, truth0, ensemble0 = make_twin()
        plain = twin.run(truth0.copy(), ensemble0.copy(), N_CYCLES)
        _, result = reference
        assert plain.analysis_rmse == result.analysis_rmse
        assert plain.background_rmse == result.background_rmse
        assert plain.free_rmse == result.free_rmse
        assert plain.spread == result.spread

    def test_cycle_seeds_fast_forward(self):
        twin, _, _ = make_twin()
        full = twin.cycle_seeds()
        burned = [next(full) for _ in range(5)]
        resumed = twin.cycle_seeds(skip=3)
        assert [next(resumed), next(resumed)] == burned[3:5]

    def test_cycle_seeds_negative_skip_rejected(self):
        twin, _, _ = make_twin()
        with pytest.raises(ValueError):
            next(twin.cycle_seeds(skip=-1))


class TestKillAndResume:
    @pytest.mark.parametrize("kill_at", range(1, N_CYCLES))
    @pytest.mark.parametrize("faults", [None, CHAOS], ids=["clean", "chaos"])
    def test_kill_at_every_cycle_boundary(
        self, tmp_path, reference, kill_at, faults
    ):
        """Crash after any cycle + resume == uninterrupted run, bit for bit."""
        ref_final, ref_result = reference
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(
            twin, tmp_path, interval=INTERVAL, faults=faults
        )

        def kill(state):
            if state.cycle == kill_at:
                raise SimulatedCrash(f"kill at {state.cycle}")

        try:
            runner.run(truth0, ensemble0, N_CYCLES, on_cycle=kill)
            survived = True
        except SimulatedCrash:
            survived = False
        assert not survived

        resumed = CampaignRunner(
            twin, tmp_path, interval=INTERVAL, faults=faults
        )
        result = resumed.run_or_resume(truth0, ensemble0, N_CYCLES)
        assert np.array_equal(
            resumed.store.load(N_CYCLES).ensemble, ref_final
        )
        assert result.analysis_rmse == ref_result.analysis_rmse
        assert result.free_rmse == ref_result.free_rmse

    def test_mid_checkpoint_crash_leaves_previous_authoritative(
        self, tmp_path, reference
    ):
        """A writer killed mid-checkpoint (torn member writes via
        ``FaultyStore``, no retries) must leave only staging litter; resume
        falls back to the last complete checkpoint and still reproduces the
        uninterrupted run exactly."""
        ref_final, _ = reference
        twin, truth0, ensemble0 = make_twin()
        torn = FaultSchedule(5, member_write_fault_rate=1.0)

        crasher = CampaignRunner(
            twin,
            tmp_path,
            interval=INTERVAL,
            faults=torn,
            retry=RetryPolicy.none(),
        )
        with pytest.raises(TransientIOError):
            crasher.run(truth0, ensemble0, N_CYCLES)
        # The first commit died mid-write: staging litter only, nothing
        # committed, and the torn payload never reached a member file.
        assert crasher.store.cycles() == []
        tmp_dirs = list(tmp_path.glob("cycle-*.tmp"))
        assert tmp_dirs
        assert not list(tmp_dirs[0].glob("member_*.bin"))

        # Resume (here: restart from scratch) under the same schedule with
        # retries enabled absorbs the torn writes and finishes the campaign.
        resumed = CampaignRunner(
            twin, tmp_path, interval=INTERVAL, faults=torn
        )
        resumed.run_or_resume(truth0, ensemble0, N_CYCLES)
        assert np.array_equal(resumed.store.load(N_CYCLES).ensemble, ref_final)
        assert not list(tmp_path.glob("cycle-*.tmp"))  # litter collected

    def test_mid_checkpoint_crash_after_complete_checkpoints(
        self, tmp_path, reference
    ):
        """Crash during a *later* checkpoint: the earlier complete one wins."""
        ref_final, _ = reference
        twin, truth0, ensemble0 = make_twin()

        clean = CampaignRunner(twin, tmp_path, interval=INTERVAL)

        def kill(state):
            if state.cycle == INTERVAL + 1:
                raise SimulatedCrash("down between checkpoints")

        with pytest.raises(SimulatedCrash):
            clean.run(truth0, ensemble0, N_CYCLES, on_cycle=kill)
        assert clean.store.cycles() == [INTERVAL]

        torn = FaultSchedule(5, member_write_fault_rate=1.0)
        crasher = CampaignRunner(
            twin,
            tmp_path,
            interval=INTERVAL,
            faults=torn,
            retry=RetryPolicy.none(),
        )
        # Fault schedules are part of the campaign identity: the clean
        # prefix was cut without one, so the torn-writer must be rejected…
        with pytest.raises(ScheduleMismatchError):
            crasher.resume(N_CYCLES)

        # …whereas a matching-schedule campaign replays fine end-to-end.
        resumed = CampaignRunner(twin, tmp_path, interval=INTERVAL)
        resumed.resume(N_CYCLES)
        assert np.array_equal(resumed.store.load(N_CYCLES).ensemble, ref_final)

    def test_torn_member_in_a_pooled_write_ensemble(self, tmp_path):
        """Scheduled torn writes fire in the pooled ``write_ensemble`` too.
        Under ``member_write_fault_rate=1.0`` every member's first attempt
        dies, so the ``v``-th call tears member ``v``: it raises, no member
        after it is started, the ones before it finish, and every member
        file reads back either old- or new-complete."""
        n_members = 6
        store = EnsembleStore(tmp_path, Grid(n_x=12, n_y=6))
        rng = np.random.default_rng(0)
        old = rng.normal(size=(store.grid.n, n_members))
        new = rng.normal(size=(store.grid.n, n_members))
        store.write_ensemble(old)
        faulty = FaultyStore(store, FaultSchedule(5, member_write_fault_rate=1.0))

        for victim in range(n_members):
            with pytest.raises(
                TransientIOError, match=f"torn write of member {victim} "
            ):
                faulty.write_ensemble(new)
            assert faulty.report.disk_faults == victim + 1
            files = store.read_ensemble()
            assert np.array_equal(files[:, :victim], new[:, :victim])
            assert np.array_equal(files[:, victim:], old[:, victim:])
            torn = tmp_path / f"member_{victim:05d}.bin.tmp"
            assert torn.stat().st_size == store.grid.n // 2 * 8
        # every member's one scheduled attempt is spent: all of them land
        faulty.write_ensemble(new)
        assert np.array_equal(store.read_ensemble(), new)
        assert not list(tmp_path.glob("*.tmp"))

    def test_resume_skips_completed_cycles(self, tmp_path):
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(twin, tmp_path, interval=2)

        def kill(state):
            if state.cycle == 5:
                raise SimulatedCrash("kill")

        with pytest.raises(SimulatedCrash):
            runner.run(truth0, ensemble0, N_CYCLES, on_cycle=kill)
        executed = []
        CampaignRunner(twin, tmp_path, interval=2).resume(
            N_CYCLES, on_cycle=lambda s: executed.append(s.cycle)
        )
        assert executed == [5, 6, 7, 8]  # checkpoint at 4 survived

    def test_resume_empty_store_raises(self, tmp_path):
        twin, _, _ = make_twin()
        runner = CampaignRunner(twin, tmp_path)
        with pytest.raises(NoCheckpointError):
            runner.resume(N_CYCLES)

    def test_resume_wrong_master_seed_rejected(self, tmp_path):
        twin, truth0, ensemble0 = make_twin()
        CampaignRunner(twin, tmp_path, interval=INTERVAL).run(
            truth0, ensemble0, N_CYCLES
        )
        other, _, _ = make_twin()
        other.master_seed = 99
        with pytest.raises(ScheduleMismatchError):
            CampaignRunner(other, tmp_path, interval=INTERVAL).resume(N_CYCLES)

    def test_resume_different_schedule_rejected(self, tmp_path):
        twin, truth0, ensemble0 = make_twin()
        CampaignRunner(twin, tmp_path, interval=INTERVAL, faults=CHAOS).run(
            truth0, ensemble0, N_CYCLES
        )
        different = CHAOS.with_(seed=CHAOS.seed + 1)
        with pytest.raises(ScheduleMismatchError):
            CampaignRunner(
                twin, tmp_path, interval=INTERVAL, faults=different
            ).resume(N_CYCLES)


    def test_faulted_manifest_cut_before_worker_knobs_left_resumes(
        self, tmp_path, reference
    ):
        """Manifests written while ``FaultSchedule`` still had the worker
        crash/hang knobs carry them at their defaults.  Resume compares
        schedules by value after ``from_dict``, so such a campaign
        continues bit-identically; one that *used* a knob is refused."""
        ref_final, _ = reference
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(twin, tmp_path, interval=INTERVAL, faults=CHAOS)

        def kill(state):
            if state.cycle == INTERVAL:
                raise SimulatedCrash("kill")

        with pytest.raises(SimulatedCrash):
            runner.run(truth0, ensemble0, N_CYCLES, on_cycle=kill)
        manifest_path = runner.store.cycle_dir(INTERVAL) / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["faults"].update(
            worker_crash_rate=0.0, worker_hang_rate=0.0,
            worker_hang_seconds=30.0,
        )
        manifest_path.write_text(json.dumps(manifest))

        resumed = CampaignRunner(twin, tmp_path, interval=INTERVAL, faults=CHAOS)
        resumed.resume(N_CYCLES)
        assert np.array_equal(resumed.store.load(N_CYCLES).ensemble, ref_final)

        manifest["faults"]["worker_crash_rate"] = 0.2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="worker_crash_rate"):
            CampaignRunner(
                twin, tmp_path / "other", interval=INTERVAL, faults=CHAOS
            )._check_schedule(manifest["faults"])


class TestCorruptionFallback:
    def run_campaign(self, tmp_path, retention=None):
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(
            twin, tmp_path, interval=1, retention=retention
        )
        runner.run(truth0, ensemble0, N_CYCLES)
        return twin, runner

    def test_member_bitrot_detected_and_skipped(self, tmp_path, reference):
        ref_final, _ = reference
        twin, runner = self.run_campaign(tmp_path)
        latest = runner.store.latest()
        victim = runner.store.cycle_dir(latest) / "member_00002.bin"
        raw = bytearray(victim.read_bytes())
        raw[17] ^= 0xFF
        victim.write_bytes(bytes(raw))

        with pytest.raises(CorruptMemberError):
            runner.store.load(latest)
        best = runner.store.load_best()
        assert best.cycle == latest - 1
        # The poisoned checkpoint is quarantined, not left masking its
        # cycle, so the resumed campaign can re-commit a clean cycle 8.
        assert runner.store.cycles() == list(range(1, latest))
        assert (tmp_path / f"cycle-{latest:05d}.corrupt").exists()

        resumed = CampaignRunner(twin, tmp_path, interval=1)
        resumed.resume(N_CYCLES)
        assert np.array_equal(resumed.store.load(N_CYCLES).ensemble, ref_final)

    def test_truncated_member_detected(self, tmp_path):
        _, runner = self.run_campaign(tmp_path)
        latest = runner.store.latest()
        victim = runner.store.cycle_dir(latest) / "member_00000.bin"
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(CorruptMemberError):
            runner.store.load(latest)
        assert runner.store.load_best().cycle == latest - 1

    def test_garbage_manifest_detected(self, tmp_path):
        _, runner = self.run_campaign(tmp_path)
        latest = runner.store.latest()
        (runner.store.cycle_dir(latest) / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(CorruptCheckpointError):
            runner.store.load(latest)
        assert runner.store.load_best().cycle == latest - 1

    def test_unsupported_schema_version_detected(self, tmp_path):
        _, runner = self.run_campaign(tmp_path)
        latest = runner.store.latest()
        path = runner.store.cycle_dir(latest) / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["schema_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(CorruptCheckpointError):
            runner.store.load(latest)
        assert runner.store.load_best().cycle == latest - 1

    def test_aux_corruption_detected(self, tmp_path):
        _, runner = self.run_campaign(tmp_path)
        latest = runner.store.latest()
        victim = runner.store.cycle_dir(latest) / "aux_truth.bin"
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            runner.store.load(latest)

    def test_all_corrupt_raises_no_checkpoint(self, tmp_path):
        _, runner = self.run_campaign(tmp_path)
        for cycle in runner.store.cycles():
            (runner.store.cycle_dir(cycle) / MANIFEST_NAME).write_text("?")
        with pytest.raises(NoCheckpointError):
            runner.store.load_best()


class TestRetentionAndStore:
    def test_retention_keeps_last_and_every(self, tmp_path):
        self_twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(
            self_twin,
            tmp_path,
            interval=1,
            retention=RetentionPolicy(keep_last=2, keep_every=4),
        )
        runner.run(truth0, ensemble0, N_CYCLES)
        assert runner.store.cycles() == [4, 7, 8]

    def test_newest_checkpoint_never_collected(self, tmp_path):
        store = CheckpointStore(
            tmp_path, retention=RetentionPolicy(keep_last=1, keep_every=100)
        )
        rng = np.random.default_rng(0)
        for cycle in (1, 2, 3):
            store.save(cycle, rng.normal(size=(6, 3)))
        assert store.cycles() == [3]

    def test_save_is_idempotent_per_cycle(self, tmp_path):
        store = CheckpointStore(tmp_path)
        first = np.arange(12.0).reshape(6, 2)
        store.save(1, first)
        store.save(1, first + 1.0)  # ignored: cycle 1 already committed
        assert np.array_equal(store.load(1).ensemble, first)

    def test_save_rejects_bad_shapes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save(0, np.zeros(5))
        with pytest.raises(ValueError):
            store.cycle_dir(-1)

    def test_roundtrip_preserves_exact_bits(self, tmp_path):
        store = CheckpointStore(tmp_path)
        rng = np.random.default_rng(42)
        ensemble = rng.normal(size=(20, 4))
        aux = {"truth": rng.normal(size=20), "free": rng.normal(size=20)}
        diagnostics = {"analysis_rmse": [0.1 + 1e-17, 0.25]}
        store.save(3, ensemble, aux=aux, diagnostics=diagnostics)
        ckpt = store.load(3)
        assert np.array_equal(ckpt.ensemble, ensemble)
        assert np.array_equal(ckpt.aux["truth"], aux["truth"])
        assert np.array_equal(ckpt.aux["free"], aux["free"])
        assert ckpt.manifest.diagnostics["analysis_rmse"] == [0.1 + 1e-17, 0.25]

    def test_manifest_records_schedule_roundtrip(self, tmp_path):
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(
            twin, tmp_path, interval=INTERVAL, faults=CHAOS
        )
        runner.run(truth0, ensemble0, N_CYCLES)
        manifest = runner.store.load_best().manifest
        assert FaultSchedule.from_dict(manifest.faults) == CHAOS

    def test_manifest_rejects_unknown_fields(self):
        with pytest.raises(CorruptCheckpointError):
            CheckpointManifest.from_json(
                json.dumps({"schema_version": 1, "cycle": 0, "surprise": 1})
            )


class TestGracefulDrain:
    """An interrupt (Ctrl-C or SIGTERM) commits a final checkpoint of the
    completed cycles before the campaign dies, and the resumed campaign
    is bit-identical to one that was never interrupted."""

    KILL_AT = 3  # between checkpoints with interval=5

    def test_interrupt_at_cycle_boundary_leaves_resumable_store(
        self, tmp_path, reference
    ):
        ref_final, ref_result = reference
        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(twin, tmp_path, interval=5)

        def interrupt(state):
            if state.cycle == self.KILL_AT:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            runner.run(truth0, ensemble0, N_CYCLES, on_cycle=interrupt)
        # The drain committed the in-between cycle (interval alone would
        # have left nothing newer than cycle 0).
        assert runner.store.latest() == self.KILL_AT

        resumed = CampaignRunner(twin, tmp_path, interval=5)
        result = resumed.resume(N_CYCLES)
        assert np.array_equal(
            resumed.store.load(N_CYCLES).ensemble, ref_final
        )
        assert result.analysis_rmse == ref_result.analysis_rmse

    def test_interrupt_mid_cycle_drains_completed_prefix(
        self, tmp_path, reference
    ):
        """A kill in the middle of a cycle (here: mid-analysis) must not
        checkpoint the partial cycle — the drain describes the completed
        prefix and truncates its half-appended diagnostics."""
        ref_final, ref_result = reference
        twin, truth0, ensemble0 = make_twin()
        inner = twin.assimilate
        calls = []

        def exploding(states, y, rng):
            calls.append(1)
            if len(calls) == self.KILL_AT + 1:  # inside cycle KILL_AT+1
                raise KeyboardInterrupt
            return inner(states, y, rng)

        twin.assimilate = exploding
        runner = CampaignRunner(twin, tmp_path, interval=5)
        with pytest.raises(KeyboardInterrupt):
            runner.run(truth0, ensemble0, N_CYCLES)
        assert runner.store.latest() == self.KILL_AT
        manifest = runner.store.load_best().manifest
        for name, series in manifest.diagnostics.items():
            assert len(series) == self.KILL_AT, name

        twin.assimilate = inner
        resumed = CampaignRunner(twin, tmp_path, interval=5)
        result = resumed.resume(N_CYCLES)
        assert np.array_equal(
            resumed.store.load(N_CYCLES).ensemble, ref_final
        )
        assert result.free_rmse == ref_result.free_rmse

    def test_sigterm_is_drained_like_ctrl_c(self, tmp_path):
        import os
        import signal

        twin, truth0, ensemble0 = make_twin()
        runner = CampaignRunner(twin, tmp_path, interval=5)

        def terminate(state):
            if state.cycle == self.KILL_AT:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(KeyboardInterrupt):
            runner.run(truth0, ensemble0, N_CYCLES, on_cycle=terminate)
        assert runner.store.latest() == self.KILL_AT

    def test_sigterm_handler_restored_after_run(self, tmp_path):
        import signal

        previous = signal.getsignal(signal.SIGTERM)
        twin, truth0, ensemble0 = make_twin()
        CampaignRunner(twin, tmp_path, interval=INTERVAL).run(
            truth0, ensemble0, 2
        )
        assert signal.getsignal(signal.SIGTERM) is previous


class TestSharedCheckpointRoot:
    """Two campaigns GC'ing under one parent directory must never collect
    each other's checkpoints — retention is scoped to a campaign's own
    cycle directories."""

    def test_gc_is_campaign_scoped(self, tmp_path):
        twin_a, truth0, ensemble0 = make_twin()
        twin_b, _, _ = make_twin()
        runner_a = CampaignRunner(
            twin_a, tmp_path / "campaign-a", interval=1,
            retention=RetentionPolicy(keep_last=2, keep_every=4),
        )
        runner_b = CampaignRunner(
            twin_b, tmp_path / "campaign-b", interval=1,
            retention=RetentionPolicy(keep_last=1, keep_every=100),
        )
        runner_a.run(truth0, ensemble0, N_CYCLES)
        runner_b.run(truth0, ensemble0, N_CYCLES)
        # Each store enforces exactly its own policy on its own cycles.
        assert runner_a.store.cycles() == [4, 7, 8]
        assert runner_b.store.cycles() == [8]
        # Another GC pass on A must not reach into B's directory.
        runner_a.store.gc()
        assert runner_b.store.cycles() == [8]
        assert runner_a.store.cycles() == [4, 7, 8]

    def test_interleaved_saves_do_not_cross_collect(self, tmp_path):
        rng = np.random.default_rng(0)
        store_a = CheckpointStore(
            tmp_path / "a", retention=RetentionPolicy(keep_last=1)
        )
        store_b = CheckpointStore(
            tmp_path / "b", retention=RetentionPolicy(keep_last=1)
        )
        for cycle in (1, 2, 3):
            store_a.save(cycle, rng.normal(size=(6, 3)))
            store_b.save(cycle, rng.normal(size=(6, 3)))
        assert store_a.cycles() == [3]
        assert store_b.cycles() == [3]
        assert np.array_equal(
            store_b.load(3).ensemble, store_b.load_best().ensemble
        )
