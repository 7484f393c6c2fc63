"""Tests for the fault-injection + resilience subsystem (simulated side).

Covers the seeded :class:`FaultSchedule` (determinism properties via
hypothesis), the retry policy, the machine-layer injection points (disk
faults, outages, slowdowns, message delay/drop), the resilient plan
executor, the deadlock watchdogs, and the chaos acceptance criteria for
the fault-aware S-EnKF orchestration, including its failover.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, MachineSpec
from repro.core import Decomposition, Grid
from repro.faults import (
    DeadlockError,
    DiskFaultError,
    DiskOutage,
    FaultInjector,
    FaultSchedule,
    MemberUnrecoverableError,
    ResilienceReport,
    RetryPolicy,
)
from repro.filters.base import PerfScenario
from repro.filters.penkf import simulate_penkf
from repro.filters.senkf import simulate_senkf
from repro.io import (
    FileLayout,
    bar_read_plan,
    simulate_read_plan,
)
from repro.mpisim import Communicator, RankContext
from repro.sim.trace import PHASE_READ, PHASE_RETRY

SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


def tiny_spec(**kw):
    defaults = dict(
        alpha=1e-5,
        beta=1e-9,
        theta=5e-9,
        c_point=1e-5,
        seek_time=1e-3,
        n_storage_nodes=4,
        disk_concurrency=4,
    )
    defaults.update(kw)
    return MachineSpec(**defaults)


def tiny_scenario():
    return PerfScenario(n_x=48, n_y=24, n_members=8, h_bytes=240, xi=2, eta=1)


def setup_plan(n_files=8):
    grid = Grid(n_x=24, n_y=12)
    decomp = Decomposition(grid, n_sdx=4, n_sdy=3, xi=2, eta=1)
    layout = FileLayout(grid=grid, h_bytes=8)
    return decomp, layout, bar_read_plan(decomp, layout, n_files=n_files)


# ---------------------------------------------------------------------------
# FaultSchedule determinism
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, rate=st.floats(0.0, 1.0, allow_nan=False))
    def test_same_seed_same_fingerprint(self, seed, rate):
        make = lambda: FaultSchedule(  # noqa: E731
            seed,
            disk_fault_rate=rate,
            message_drop_rate=rate / 2,
            member_fault_rate=rate,
        )
        assert make().fingerprint(64) == make().fingerprint(64)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**62))
    def test_different_seed_different_decisions(self, seed):
        a = FaultSchedule(seed, disk_fault_rate=0.5)
        b = FaultSchedule(seed + 1, disk_fault_rate=0.5)
        assert a.fingerprint(128) != b.fingerprint(128)

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS)
    def test_query_order_independent(self, seed):
        sched = FaultSchedule(seed, disk_fault_rate=0.3, disk_slowdown_rate=0.3)
        forward = [sched.disk_request(0, s) for s in range(32)]
        backward = [sched.disk_request(0, s) for s in reversed(range(32))]
        assert forward == list(reversed(backward))

    def test_null_schedule(self):
        sched = FaultSchedule(seed=7)
        assert sched.is_null
        assert sched.disk_request(0, 0) is None
        assert sched.message_fault(0, 1, 0, 0) == (0.0, False)
        assert sched.member_failures(3) == 0
        assert not sched.member_corrupt(3)
        assert not FaultSchedule(seed=7, disk_fault_rate=0.1).is_null
        assert not FaultSchedule(
            seed=7, killed_ranks=((3, 1.0),)
        ).is_null

    def test_certain_rates_always_fire(self):
        sched = FaultSchedule(seed=1, disk_fault_rate=1.0, message_drop_rate=1.0)
        assert all(sched.disk_request(d, s).fail for d in range(4) for s in range(16))
        assert all(
            sched.message_fault(0, 1, t, s)[1] for t in range(4) for s in range(16)
        )

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(seed=0, disk_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(seed=0, message_drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSchedule(seed=0, disk_slowdown_factor=0.5)
        with pytest.raises(ValueError):
            FaultSchedule(seed=0, stragglers=((2, 0.5),))
        with pytest.raises(ValueError):
            DiskOutage(disk_id=0, start=2.0, end=1.0)

    def test_outage_window(self):
        sched = FaultSchedule(
            seed=0, outages=(DiskOutage(disk_id=2, start=1.0, end=2.0),)
        )
        assert sched.disk_available(2, 0.5)
        assert not sched.disk_available(2, 1.0)
        assert not sched.disk_available(2, 1.999)
        assert sched.disk_available(2, 2.0)
        assert sched.disk_available(1, 1.5)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_retries=5, base_delay=1e-3, multiplier=2.0,
                             max_delay=3e-3)
        delays = [policy.delay(a) for a in range(5)]
        assert delays[0] == pytest.approx(1e-3)
        assert delays[1] == pytest.approx(2e-3)
        assert all(d <= 3e-3 for d in delays)
        assert delays[-1] == pytest.approx(3e-3)

    def test_should_retry_bounds(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(0)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)

    def test_deadline(self):
        policy = RetryPolicy(max_retries=100, deadline=1.0)
        assert policy.should_retry(0, elapsed=0.5)
        assert not policy.should_retry(0, elapsed=1.5)

    def test_none_never_retries(self):
        assert not RetryPolicy.none().should_retry(0)


# ---------------------------------------------------------------------------
# Report + injector recording
# ---------------------------------------------------------------------------
class TestReportAndInjector:
    def test_report_counters_and_slowdown(self):
        report = ResilienceReport()
        report.disk_faults += 2
        report.drop_member(3)
        report.drop_member(3)
        assert report.members_dropped == [3]
        report.finalize(2.0, clean_makespan=1.0)
        assert report.slowdown == pytest.approx(2.0)
        summary = report.summary()
        assert summary["faults_injected"] == 2.0
        assert summary["slowdown"] == pytest.approx(2.0)

    def test_injector_records_queries(self):
        injector = FaultInjector(FaultSchedule(seed=0, disk_fault_rate=1.0))
        assert injector.disk_request(0, 0).fail
        assert injector.report.disk_faults == 1
        injector = FaultInjector(
            FaultSchedule(
                seed=0, outages=(DiskOutage(disk_id=0, start=0.0, end=1.0),)
            )
        )
        assert not injector.disk_available(0, 0.5)
        assert injector.report.outage_hits == 1


# ---------------------------------------------------------------------------
# Machine-layer injection
# ---------------------------------------------------------------------------
def run_one_read(schedule, file_id=0, seeks=1, nbytes=4096, spec=None):
    machine = Machine(
        spec or tiny_spec(n_storage_nodes=1),
        faults=FaultInjector(schedule) if schedule is not None else None,
    )
    result = {}

    def proc():
        try:
            out = yield from machine.pfs.read(file_id, seeks=seeks, nbytes=nbytes)
            result["outcome"] = out
        except DiskFaultError as exc:
            result["error"] = exc

    machine.env.process(proc())
    machine.run()
    result["makespan"] = machine.env.now
    return result


class TestDiskInjection:
    def test_transient_fault_raises_after_service(self):
        clean = run_one_read(None)
        faulty = run_one_read(FaultSchedule(seed=0, disk_fault_rate=1.0))
        assert "error" in faulty
        assert faulty["error"].disk_id == 0
        # The failed request still consumed its full service time.
        assert faulty["makespan"] == pytest.approx(clean["makespan"])

    def test_outage_fails_fast(self):
        sched = FaultSchedule(
            seed=0, outages=(DiskOutage(disk_id=0, start=0.0, end=10.0),)
        )
        result = run_one_read(sched)
        assert "error" in result
        assert "outage" in str(result["error"])

    def test_slowdown_stretches_service(self):
        clean = run_one_read(None)
        slow = run_one_read(
            FaultSchedule(seed=0, disk_slowdown_rate=1.0, disk_slowdown_factor=4.0)
        )
        assert "outcome" in slow
        assert slow["makespan"] > clean["makespan"]

    def test_null_schedule_makespan_identical(self):
        clean = run_one_read(None)
        null = run_one_read(FaultSchedule(seed=123))
        assert null["makespan"] == clean["makespan"]
        assert "outcome" in null


# ---------------------------------------------------------------------------
# Resilient plan executor
# ---------------------------------------------------------------------------
class TestSimulateReadPlanResilient:
    def test_retries_recover_and_are_recorded(self):
        _, _, plan = setup_plan()
        sched = FaultSchedule(seed=5, disk_fault_rate=0.15)
        machine = Machine(tiny_spec(), faults=FaultInjector(sched))
        timeline, makespan = simulate_read_plan(
            machine, plan, retry=RetryPolicy(max_retries=8)
        )
        report = machine.faults.report
        assert report.disk_faults > 0
        assert report.retries == report.disk_faults
        assert report.failed_ops == 0
        assert timeline.total(PHASE_RETRY) > 0
        # Retried run still covers every rank's reads and costs more time.
        clean_machine = Machine(tiny_spec())
        _, clean_makespan = simulate_read_plan(clean_machine, plan)
        assert makespan > clean_makespan

    def test_unrecoverable_raises_by_default(self):
        _, _, plan = setup_plan()
        sched = FaultSchedule(seed=5, disk_fault_rate=1.0)
        machine = Machine(tiny_spec(), faults=FaultInjector(sched))
        with pytest.raises(MemberUnrecoverableError):
            simulate_read_plan(machine, plan, retry=RetryPolicy(max_retries=1))

    def test_deterministic_under_same_seed(self):
        _, _, plan = setup_plan()

        def run():
            sched = FaultSchedule(seed=17, disk_fault_rate=0.2)
            machine = Machine(tiny_spec(), faults=FaultInjector(sched))
            _, makespan = simulate_read_plan(
                machine, plan, retry=RetryPolicy(max_retries=8)
            )
            return makespan, machine.faults.report.summary()

        assert run() == run()

    def test_zero_fault_schedule_leaves_makespan_unchanged(self):
        _, _, plan = setup_plan()
        clean_machine = Machine(tiny_spec())
        _, clean = simulate_read_plan(clean_machine, plan)
        null_machine = Machine(
            tiny_spec(), faults=FaultInjector(FaultSchedule(seed=9))
        )
        _, null = simulate_read_plan(
            null_machine, plan, retry=RetryPolicy(max_retries=3)
        )
        assert null == clean


# ---------------------------------------------------------------------------
# Deadlock watchdogs
# ---------------------------------------------------------------------------
class TestWatchdogs:
    def make_comm(self, size=2):
        machine = Machine(MachineSpec(alpha=1e-3, beta=1e-6))
        return machine, Communicator(machine, size=size)

    def test_recv_watchdog_raises_deadlock_error(self):
        machine, comm = self.make_comm()

        def main(ctx):
            if ctx.rank == 1:
                yield from ctx.recv(source=0, tag=3, timeout=0.5)

        comm.spawn(main)
        with pytest.raises(DeadlockError) as err:
            machine.run()
        assert err.value.ranks == (1,)
        assert "tag=3" in str(err.value)

    def test_drain_hook_names_stuck_ranks(self):
        machine, comm = self.make_comm(size=3)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=100, tag=0)
            elif ctx.rank == 1:
                yield from ctx.recv(source=0, tag=0)
                yield from ctx.recv(source=2, tag=9)  # never sent

        comm.spawn(main)
        with pytest.raises(DeadlockError) as err:
            machine.run()
        assert err.value.ranks == (1,)
        assert "tag=9" in str(err.value)

    def test_winning_watchdog_does_not_inflate_makespan(self):
        def run(timeout):
            machine, comm = self.make_comm()
            done = []

            def main(ctx):
                if ctx.rank == 0:
                    yield from ctx.send(1, nbytes=1000, tag=0)
                else:
                    yield from ctx.recv(source=0, tag=0, timeout=timeout)
                    done.append(ctx.env.now)

            comm.spawn(main)
            machine.run()
            return machine.env.now, done

        plain = run(None)
        watched = run(1e6)  # absurdly long watchdog, recv wins the race
        assert watched == plain

    def test_dropped_message_surfaces_as_deadlock(self):
        machine = Machine(
            MachineSpec(alpha=1e-3, beta=1e-6),
            faults=FaultInjector(FaultSchedule(seed=0, message_drop_rate=1.0)),
        )
        comm = Communicator(machine, size=2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=100, tag=0)
            else:
                yield from ctx.recv(source=0, tag=0)

        comm.spawn(main)
        with pytest.raises(DeadlockError):
            machine.run()
        assert machine.faults.report.messages_dropped == 1

# ---------------------------------------------------------------------------
# Chaos acceptance: fault-aware S-EnKF / P-EnKF
# ---------------------------------------------------------------------------
class TestSEnKFChaos:
    SENKF_ARGS = dict(n_sdx=4, n_sdy=3, n_layers=2, n_cg=2)

    def clean_run(self):
        return simulate_senkf(tiny_spec(), tiny_scenario(), **self.SENKF_ARGS)

    def test_survives_disk_faults_and_killed_io_rank(self):
        clean = self.clean_run()
        n_compute = self.SENKF_ARGS["n_sdx"] * self.SENKF_ARGS["n_sdy"]
        sched = FaultSchedule(
            seed=42,
            disk_fault_rate=0.05,
            killed_ranks=((n_compute + 1, 0.002),),
        )
        report = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=sched, retry=RetryPolicy(max_retries=8),
        )
        res = report.resilience
        assert res is not None
        assert res.ranks_killed == [n_compute + 1]
        assert res.failovers >= 1
        assert res.disk_faults > 0
        # The headline acceptance criterion: completes via failover within
        # 2x the clean makespan.
        assert report.total_time <= 2 * clean.total_time
        res.finalize(report.total_time, clean.total_time)
        assert res.slowdown <= 2.0

    def test_failover_sends_the_same_stage_messages(self, monkeypatch):
        """Failover changes which rank does the work, not the work.

        A killed I/O rank's remaining stages are re-read and re-sent by a
        band peer, so the stage messages (dest, tag, bytes) equal the clean
        run's as a multiset, and the dead rank starts no send once killed.
        """
        sent = []
        real_send = RankContext.send

        def recording_send(ctx, dest, nbytes, tag=0, payload=None):
            if tag >= 0:  # stage data; flow-control acks use negative tags
                sent.append((ctx.rank, ctx.env.now, (dest, tag, nbytes)))
            return real_send(ctx, dest, nbytes, tag=tag, payload=payload)

        monkeypatch.setattr(RankContext, "send", recording_send)
        clean = self.clean_run()
        clean_msgs = sorted(msg for _, _, msg in sent)

        victim = self.SENKF_ARGS["n_sdx"] * self.SENKF_ARGS["n_sdy"] + 1
        # Kill the victim in the middle of a stage-0 read.
        t0, t1 = clean.timeline.intervals(PHASE_READ, ranks=[victim])[1]
        kill_at = (t0 + t1) / 2
        sent.clear()
        report = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=FaultSchedule(seed=7, disk_fault_rate=0.0,
                                 killed_ranks=((victim, kill_at),)),
        )
        assert report.resilience.failovers >= 1
        assert report.resilience.ranks_killed == [victim]
        assert sorted(msg for _, _, msg in sent) == clean_msgs
        assert all(t < kill_at for rank, t, _ in sent if rank == victim)

    def test_chaos_run_is_deterministic(self):
        def run():
            sched = FaultSchedule(seed=11, disk_fault_rate=0.1,
                                  killed_ranks=((13, 0.003),))
            report = simulate_senkf(
                tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
                faults=sched, retry=RetryPolicy(max_retries=8),
            )
            return report.total_time, report.resilience.summary()

        assert run() == run()

    def test_zero_fault_schedule_identical_makespan(self):
        clean = self.clean_run()
        null = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=FaultSchedule(seed=1), retry=RetryPolicy(),
        )
        assert null.total_time == clean.total_time
        assert null.resilience.faults_injected == 0

    def test_straggler_compute_rank_slows_run(self):
        clean = self.clean_run()
        slow = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=FaultSchedule(seed=1, stragglers=((0, 8.0),)),
        )
        assert slow.total_time > clean.total_time

    def test_disk_slowdown_stretches_makespan(self):
        clean = self.clean_run()
        sched = FaultSchedule(seed=2019, disk_slowdown_rate=0.2,
                              disk_slowdown_factor=4.0)
        slow = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=sched, retry=RetryPolicy(max_retries=8),
        )
        assert slow.resilience.disk_slowdowns > 0
        assert slow.total_time > clean.total_time

    def test_killed_compute_rank_rejected(self):
        with pytest.raises(ValueError, match="I/O rank"):
            simulate_senkf(
                tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
                faults=FaultSchedule(seed=1, killed_ranks=((0, 0.01),)),
            )

    def test_dropped_member_degrades_gracefully(self):
        # Certain disk failure with a single-retry policy: members on the
        # faulty path are dropped but the run still completes.
        sched = FaultSchedule(seed=3, disk_fault_rate=0.35)
        report = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=sched, retry=RetryPolicy(max_retries=0),
        )
        res = report.resilience
        assert res.failed_ops > 0
        assert res.members_dropped
        assert report.total_time > 0

    def test_report_summary_carries_chaos_keys(self):
        sched = FaultSchedule(seed=11, disk_fault_rate=0.1)
        report = simulate_senkf(
            tiny_spec(), tiny_scenario(), **self.SENKF_ARGS,
            faults=sched, retry=RetryPolicy(max_retries=8),
        )
        summary = report.summary()
        assert "chaos_faults_injected" in summary
        assert summary["chaos_retries"] >= summary["chaos_faults_injected"] - \
            summary["chaos_failed_ops"] - summary["chaos_disk_slowdowns"]


class TestPEnKFChaos:
    def test_zero_fault_schedule_identical_makespan(self):
        clean = simulate_penkf(tiny_spec(), tiny_scenario(), 4, 3)
        null = simulate_penkf(
            tiny_spec(), tiny_scenario(), 4, 3,
            faults=FaultSchedule(seed=2), retry=RetryPolicy(),
        )
        assert null.total_time == clean.total_time

    def test_retries_recover(self):
        sched = FaultSchedule(seed=4, disk_fault_rate=0.1)
        report = simulate_penkf(
            tiny_spec(), tiny_scenario(), 4, 3,
            faults=sched, retry=RetryPolicy(max_retries=8),
        )
        res = report.resilience
        assert res.disk_faults > 0
        assert res.failed_ops == 0
        assert not res.members_dropped


# ---------------------------------------------------------------------------
# FaultSchedule serialisation (checkpoint manifests persist schedules as JSON)
# ---------------------------------------------------------------------------
_rates = st.floats(0.0, 1.0, allow_nan=False)
_times = st.floats(0.0, 10.0, allow_nan=False)


def _schedules():
    """Arbitrary valid schedules, every field exercised."""
    outages = st.lists(
        st.tuples(st.integers(0, 7), _times, st.floats(0.5, 5.0, allow_nan=False)),
        max_size=3,
    ).map(lambda xs: tuple(DiskOutage(d, s, s + w) for d, s, w in xs))
    rank_factors = st.lists(
        st.tuples(st.integers(0, 63), st.floats(1.0, 8.0, allow_nan=False)),
        max_size=3,
    ).map(tuple)
    rank_times = st.lists(
        st.tuples(st.integers(0, 63), _times), max_size=3
    ).map(tuple)
    return st.builds(
        FaultSchedule,
        seed=SEEDS,
        disk_fault_rate=_rates,
        disk_slowdown_rate=_rates,
        disk_slowdown_factor=st.floats(1.0, 16.0, allow_nan=False),
        outages=outages,
        stragglers=rank_factors,
        message_delay_rate=_rates,
        message_delay=_times,
        message_drop_rate=_rates,
        killed_ranks=rank_times,
        member_fault_rate=_rates,
        member_fault_attempts=st.integers(0, 5),
        member_corrupt_rate=_rates,
        member_write_fault_rate=_rates,
        member_write_attempts=st.integers(0, 5),
    )


class TestScheduleSerialisation:
    @settings(max_examples=60, deadline=None)
    @given(schedule=_schedules())
    def test_json_roundtrip_is_decision_identical(self, schedule):
        """to_dict -> JSON -> from_dict rebuilds the *same* schedule.

        Equality of the frozen dataclass covers every field; equality of
        the fingerprints covers the actual fault *decisions* (the
        fingerprint hashes sampled draws from every injection site), so a
        resumed campaign replays fault-for-fault what the manifest froze.
        """
        import json

        wire = json.loads(json.dumps(schedule.to_dict()))
        rebuilt = FaultSchedule.from_dict(wire)
        assert rebuilt == schedule
        assert rebuilt.fingerprint() == schedule.fingerprint()

    @settings(max_examples=20, deadline=None)
    @given(schedule=_schedules())
    def test_dict_survives_double_roundtrip(self, schedule):
        once = FaultSchedule.from_dict(schedule.to_dict())
        assert once.to_dict() == schedule.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        data = FaultSchedule(1).to_dict()
        data["surprise"] = 1.0
        with pytest.raises(ValueError):
            FaultSchedule.from_dict(data)

    #: what every ``to_dict`` wrote for the worker crash/hang knobs
    #: before they were removed with the process pool
    OLD_WORKER_KEYS = {
        "worker_crash_rate": 0.0,
        "worker_hang_rate": 0.0,
        "worker_hang_seconds": 30.0,
    }

    def test_old_manifest_with_zero_worker_rates_is_accepted(self):
        """Every faulted manifest cut before the removal carries the
        three keys at their defaults and must stay readable."""
        schedule = FaultSchedule(9, disk_fault_rate=0.1, member_fault_rate=0.2)
        old = {**schedule.to_dict(), **self.OLD_WORKER_KEYS}
        assert FaultSchedule.from_dict(old) == schedule
        # the hang seconds alone never injected anything
        old["worker_hang_seconds"] = 2.5
        assert FaultSchedule.from_dict(old) == schedule

    @pytest.mark.parametrize("knob", ["worker_crash_rate", "worker_hang_rate"])
    def test_old_manifest_that_used_a_worker_rate_is_refused(self, knob):
        """A non-zero removed rate recorded a chaos regime this version
        cannot replay: a ValueError naming the knob, not a silent drop."""
        old = {**FaultSchedule(9).to_dict(), **self.OLD_WORKER_KEYS, knob: 0.25}
        with pytest.raises(ValueError, match=knob):
            FaultSchedule.from_dict(old)

    def test_removed_worker_keys_do_not_round_trip(self):
        """``to_dict`` no longer writes the removed keys, so a manifest
        re-cut by this version drops them; the schedule is unchanged."""
        schedule = FaultSchedule(9, disk_fault_rate=0.1)
        old = {**schedule.to_dict(), **self.OLD_WORKER_KEYS}
        rebuilt = FaultSchedule.from_dict(old)
        assert not set(self.OLD_WORKER_KEYS) & set(rebuilt.to_dict())
        assert FaultSchedule.from_dict(rebuilt.to_dict()) == schedule
        assert rebuilt.fingerprint() == schedule.fingerprint()
        with pytest.raises(TypeError):
            FaultSchedule(9, worker_crash_rate=0.0)
