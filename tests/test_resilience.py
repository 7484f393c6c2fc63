"""Resilience tests for the real-file path and degraded-mode analysis.

Covers :class:`FaultyStore` (injected transient failures and physical
corruption), staging a plan under a retry policy (retry-until-clean,
member dropping), typed corruption detection in the genuine store,
graceful degradation in the filters (bit-identity of the compensated
``N - k`` analysis), and the hypothesis property that all four reading
strategies stage the same data and drop the same members under faults.
"""

import math
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid
from repro.core.observations import ObservationNetwork
from repro.data.store import (
    EnsembleStore,
    read_plan_from_disk,
    stage_plan_from_disk,
)
from repro.faults import (
    CorruptMemberError,
    FaultSchedule,
    FaultyStore,
    ResilienceReport,
    RetryPolicy,
    TransientIOError,
    run_with_retry,
)
from repro.filters.distributed import DistributedEnKF
from repro.io import (
    bar_read_plan,
    block_read_plan,
    concurrent_access_plan,
    single_reader_plan,
)
from repro.telemetry import MetricsRegistry, Tracer, use_metrics, use_tracer
from tests.test_data_store import open_descriptors, read_extents

N_MEMBERS = 6


@pytest.fixture
def grid():
    return Grid(n_x=12, n_y=8)


@pytest.fixture
def store(tmp_path, grid):
    return EnsembleStore(tmp_path / "ens", grid)


@pytest.fixture
def states(grid):
    rng = np.random.default_rng(0)
    return rng.standard_normal((grid.n, N_MEMBERS))


@pytest.fixture
def filled(store, states):
    store.write_ensemble(states)
    return store


def degraded_problem(grid):
    """(decomp, network, y) for a degraded analysis on ``grid``."""
    decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
    network = ObservationNetwork.regular(
        grid, every_x=3, every_y=2, obs_error_std=0.5
    )
    rng = np.random.default_rng(7)
    y = rng.standard_normal(network.m)
    return decomp, network, y


def whole_members(store, n_files=N_MEMBERS):
    """A whole-member read: the single-reader plan."""
    decomp = Decomposition(store.grid, n_sdx=1, n_sdy=1, xi=0, eta=0)
    return single_reader_plan(decomp, store.layout, n_files)


# ---------------------------------------------------------------------------
# FaultyStore
# ---------------------------------------------------------------------------
class TestFaultyStore:
    def test_transient_failures_then_clean_data(self, filled, states):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=2)
        faulty = FaultyStore(filled, sched)
        got, dropped = stage_plan_from_disk(
            whole_members(faulty), faulty, retry=RetryPolicy(max_retries=3),
            report=faulty.report,
        )
        assert dropped == []
        assert np.array_equal(got, states)
        # Two injected failures per member, each retried once.
        assert faulty.report.retries == 2 * N_MEMBERS
        assert faulty.report.disk_faults == 2 * N_MEMBERS

    def test_retries_exhausted_drops_members(self, filled, states, grid):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=5)
        faulty = FaultyStore(filled, sched)
        got, dropped = stage_plan_from_disk(
            whole_members(faulty), faulty, retry=RetryPolicy(max_retries=1)
        )
        assert dropped == list(range(N_MEMBERS))
        assert np.isnan(got).all()
        decomp, network, y = degraded_problem(grid)
        with pytest.raises(ValueError, match="surviving"):
            DistributedEnKF(radius_km=800.0).assimilate_degraded(
                decomp, got, network, y, dropped=dropped
            )

    def test_corruption_damages_real_bytes(self, filled):
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = [k for k in range(N_MEMBERS) if sched.member_corrupt(k)]
        assert corrupt, "seed must corrupt at least one member for this test"
        faulty = FaultyStore(filled, sched)
        with pytest.raises(CorruptMemberError):
            for k in corrupt:
                faulty.read_member(k)
        # The file itself was truncated: even the genuine store now sees it.
        with pytest.raises(CorruptMemberError):
            filled.read_member(corrupt[0])

    def test_deterministic_same_seed(self, filled):
        def run():
            sched = FaultSchedule(seed=8, member_fault_rate=0.5,
                                  member_fault_attempts=1)
            faulty = FaultyStore(filled, sched)
            got, dropped = stage_plan_from_disk(
                whole_members(faulty), faulty,
                retry=RetryPolicy(max_retries=2), report=faulty.report,
            )
            return got.tobytes(), dropped, faulty.report.retries

        assert run() == run()


# ---------------------------------------------------------------------------
# The one real-file retry loop
# ---------------------------------------------------------------------------
class TestRunWithRetry:
    @staticmethod
    def failing(*errors, result=None):
        """An operation raising ``errors`` in turn, then returning
        ``result``; ``calls`` counts its attempts."""
        calls = []

        def operation():
            calls.append(None)
            if len(calls) <= len(errors):
                raise errors[len(calls) - 1]
            return result

        return operation, calls

    def test_transient_errors_retried_then_the_last_reraised(self):
        errors = [TransientIOError(f"attempt {a}") for a in range(3)]
        operation, calls = self.failing(*errors)
        report, metrics = ResilienceReport(), MetricsRegistry()
        with use_tracer(Tracer()) as tracer, use_metrics(metrics):
            with pytest.raises(TransientIOError) as err:
                run_with_retry(
                    operation, RetryPolicy(max_retries=2), report, member=3
                )
        assert err.value is errors[-1]
        assert len(calls) == 3 and report.retries == 2
        assert [s.attrs for s in tracer.spans if s.name == "fault.retry"] == [
            {"member": 3, "attempt": a, "error": "TransientIOError"}
            for a in (1, 2)
        ]
        assert metrics.counter("fault.retries").value == 2

    def test_corrupt_member_is_never_retried(self):
        operation, calls = self.failing(CorruptMemberError(1, "short"))
        report = ResilienceReport()
        with pytest.raises(CorruptMemberError):
            run_with_retry(operation, RetryPolicy(max_retries=5), report)
        assert len(calls) == 1 and report.retries == 0

    def test_success_after_a_retry_carries_the_callers_attributes(self):
        operation, calls = self.failing(OSError("stalled"), result=7)
        with use_tracer(Tracer()) as tracer:
            got = run_with_retry(
                operation, RetryPolicy(max_retries=1), site="checkpoint"
            )
        assert got == 7 and len(calls) == 2
        (span,) = [s for s in tracer.spans if s.name == "fault.retry"]
        assert span.attrs == {
            "site": "checkpoint", "attempt": 1, "error": "OSError"
        }


# ---------------------------------------------------------------------------
# Staging under a retry policy: degradation
# ---------------------------------------------------------------------------
class TestResilientReaders:
    def test_corrupt_member_dropped_survivors_intact(self, filled, states):
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = sorted(k for k in range(N_MEMBERS) if sched.member_corrupt(k))
        assert 0 < len(corrupt) <= N_MEMBERS - 2
        faulty = FaultyStore(filled, sched)
        got, dropped = stage_plan_from_disk(
            whole_members(faulty), faulty, retry=RetryPolicy(max_retries=2),
            report=faulty.report,
        )
        surviving = [k for k in range(N_MEMBERS) if k not in corrupt]
        assert dropped == corrupt
        assert np.array_equal(got[:, surviving], states[:, surviving])
        assert np.isnan(got[:, corrupt]).all()
        assert faulty.report.members_dropped == corrupt

    def test_plan_reader_drops_member_everywhere(self, filled, states, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        plan = bar_read_plan(decomp, filled.layout, n_files=N_MEMBERS)
        clean, _ = stage_plan_from_disk(plan, filled)
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = sorted(k for k in range(N_MEMBERS) if sched.member_corrupt(k))
        faulty = FaultyStore(filled, sched)
        report = ResilienceReport()
        got, dropped = stage_plan_from_disk(
            plan, faulty, retry=RetryPolicy(max_retries=2), report=report
        )
        assert dropped == corrupt
        # every bar of a dropped member is gone, every other is intact
        surviving = [k for k in range(N_MEMBERS) if k not in corrupt]
        assert np.isnan(got[:, corrupt]).all()
        assert np.array_equal(got[:, surviving], clean[:, surviving])

    def test_clean_store_passthrough(self, filled, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        plan = block_read_plan(decomp, filled.layout, n_files=N_MEMBERS)
        got, dropped = stage_plan_from_disk(plan, filled, retry=RetryPolicy())
        assert dropped == []
        assert np.array_equal(got, stage_plan_from_disk(plan, filled)[0])


class TestPlanReaderKeepsOneDescriptorPerFile:
    """Staging under faults: injected faults still fire once per op, the
    counts are what a per-op reader gives, and no descriptor outlives the
    call."""

    @pytest.fixture
    def plan(self, filled, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        return block_read_plan(decomp, filled.layout, n_files=N_MEMBERS)

    def test_transient_faults_retried_per_op(self, filled, plan, states):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=2)
        faulty = FaultyStore(filled, sched)
        before = open_descriptors()
        got, dropped = stage_plan_from_disk(
            plan, faulty, retry=RetryPolicy(max_retries=3),
            report=faulty.report,
        )
        assert open_descriptors() == before
        assert dropped == []
        # a member's first two reads fail, whichever ops they belong to
        assert faulty.report.retries == 2 * N_MEMBERS
        assert faulty.report.disk_faults == 2 * N_MEMBERS
        assert faulty.report.failed_ops == 0
        n_ops = sum(len(rp.reads) for rp in plan.per_rank.values())
        assert sum(faulty._attempts.values()) == n_ops + 2 * N_MEMBERS
        assert np.array_equal(got, states)

    def test_exhausted_retries_drop_the_member_once(self, filled, plan):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=5)
        faulty = FaultyStore(filled, sched)
        before = open_descriptors()
        got, dropped = stage_plan_from_disk(
            plan, faulty, retry=RetryPolicy(max_retries=1),
            report=faulty.report,
        )
        assert open_descriptors() == before
        assert dropped == list(range(N_MEMBERS))
        assert np.isnan(got).all()
        # one failed op, one retry and two injected faults per member:
        # a dropped member's later ops are skipped, not attempted
        assert faulty.report.failed_ops == N_MEMBERS
        assert faulty.report.retries == N_MEMBERS
        assert faulty.report.disk_faults == 2 * N_MEMBERS

    def test_truncated_member_names_member_and_extent(self, filled, plan, grid):
        with open(filled.member_path(4), "r+b") as fh:
            fh.truncate(10 * 8)
        first_op = next(iter(plan.per_rank.values())).reads[4]
        beyond = next(
            (s, l) for s, l in first_op.extents if s + l > 10
        )
        before = open_descriptors()
        for read in (read_plan_from_disk, stage_plan_from_disk):
            with pytest.raises(CorruptMemberError) as err:
                read(plan, filled)
            assert open_descriptors() == before
            assert err.value.member == 4
            assert f"extent {beyond} beyond end of" in str(err.value)
            assert f"10 of {grid.n} expected values present" in str(err.value)
        report = ResilienceReport()
        _, dropped = stage_plan_from_disk(
            plan, filled, retry=RetryPolicy(), report=report
        )
        assert open_descriptors() == before
        assert dropped == [4] and report.members_dropped == [4]
        assert report.failed_ops == 1 and report.retries == 0


# ---------------------------------------------------------------------------
# Typed corruption detection in the genuine store
# ---------------------------------------------------------------------------
class TestStoreCorruptionDetection:
    def test_truncated_member_read_raises_typed_error(self, filled):
        path = filled.member_path(2)
        with open(path, "r+b") as fh:
            fh.truncate(path.stat().st_size // 2)
        with pytest.raises(CorruptMemberError) as err:
            filled.read_member(2)
        assert err.value.member == 2
        # CorruptMemberError stays a ValueError for legacy handlers.
        with pytest.raises(ValueError):
            filled.read_member(2)

    def test_extent_beyond_truncated_file(self, filled, grid):
        path = filled.member_path(1)
        with open(path, "r+b") as fh:
            fh.truncate(3 * 8)  # three values left
        with pytest.raises(CorruptMemberError):
            read_extents(filled, 1, [(0, grid.n)])
        # Extents inside the surviving prefix still read fine.
        assert read_extents(filled, 1, [(0, 3)]).shape == (3,)

    def test_logical_out_of_range_stays_value_error(self, filled, grid):
        with pytest.raises(ValueError):
            read_extents(filled, 0, [(0, grid.n + 1)])
        with pytest.raises(ValueError):
            read_extents(filled, 0, [(-1, 2)])


# ---------------------------------------------------------------------------
# Graceful degradation in the filters
# ---------------------------------------------------------------------------
class TestDegradedAnalysis:
    def test_bit_identical_to_clean_surviving_run(self, grid, states):
        decomp, network, y = degraded_problem(grid)
        f = DistributedEnKF(radius_km=800.0, inflation=1.05)
        dropped = (1, 4)
        surviving = [k for k in range(N_MEMBERS) if k not in dropped]
        analysed, result = f.assimilate_degraded(
            decomp, states, network, y, dropped=dropped,
            rng=np.random.default_rng(99),
        )
        compensation = math.sqrt((N_MEMBERS - 1) / (len(surviving) - 1))
        reference = DistributedEnKF(
            radius_km=800.0, inflation=1.05 * compensation
        ).assimilate(
            decomp, states[:, surviving], network, y,
            rng=np.random.default_rng(99),
        )
        assert np.array_equal(analysed, reference)
        assert result.degraded
        assert result.compensation == pytest.approx(compensation)
        assert result.surviving == tuple(surviving)
        assert result.dropped == dropped

    def test_no_drop_is_plain_assimilate(self, grid, states):
        decomp, network, y = degraded_problem(grid)
        f = DistributedEnKF(radius_km=800.0, inflation=1.05)
        analysed, result = f.assimilate_degraded(
            decomp, states, network, y, rng=np.random.default_rng(5)
        )
        reference = f.assimilate(
            decomp, states, network, y, rng=np.random.default_rng(5)
        )
        assert np.array_equal(analysed, reference)
        assert not result.degraded
        assert result.compensation == 1.0

    def test_degraded_does_not_mutate_filter(self, grid, states):
        decomp, network, y = degraded_problem(grid)
        f = DistributedEnKF(radius_km=800.0, inflation=1.05)
        f.assimilate_degraded(decomp, states, network, y, dropped=(0,))
        assert f.inflation == 1.05

    def test_too_few_survivors_rejected(self, grid, states):
        decomp, network, y = degraded_problem(grid)
        f = DistributedEnKF(radius_km=800.0)
        with pytest.raises(ValueError, match="surviving"):
            f.assimilate_degraded(
                decomp, states, network, y, dropped=tuple(range(N_MEMBERS - 1))
            )
        with pytest.raises(ValueError, match="out of range"):
            f.assimilate_degraded(decomp, states, network, y, dropped=(99,))


# ---------------------------------------------------------------------------
# Property: all four strategies stage the same data under faults
# ---------------------------------------------------------------------------
class TestStrategyEquivalenceUnderFaults:
    PLANNERS = {
        "single_reader": single_reader_plan,
        "block": block_read_plan,
        "bar": bar_read_plan,
        "concurrent": partial(concurrent_access_plan, n_cg=2),
    }

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(0.1, 1.0, allow_nan=False),
        attempts=st.integers(1, 3),
    )
    def test_resilient_reads_byte_identical_across_strategies(
        self, seed, rate, attempts
    ):
        """Transient faults and corrupt members: every planner drops the
        same members with the same counts, stages the clean staging's
        surviving columns, and feeds the degraded analysis exactly what
        the clean states would."""
        grid = Grid(n_x=12, n_y=8)
        decomp, network, y = degraded_problem(grid)
        states = np.random.default_rng(seed).standard_normal(
            (grid.n, N_MEMBERS)
        )
        sched = FaultSchedule(
            seed=seed, member_fault_rate=rate, member_fault_attempts=attempts,
            member_corrupt_rate=0.25,
        )
        retry = RetryPolicy(max_retries=2)
        failures = [sched.member_failures(k) for k in range(N_MEMBERS)]
        expected = [
            k for k in range(N_MEMBERS)
            if sched.member_corrupt(k) or failures[k] > retry.max_retries
        ]
        surviving = [k for k in range(N_MEMBERS) if k not in expected]
        filt = DistributedEnKF(radius_km=800.0, inflation=1.02)

        def degraded(background):
            if len(surviving) < 2:
                with pytest.raises(ValueError, match="surviving"):
                    filt.assimilate_degraded(
                        decomp, background, network, y, dropped=expected
                    )
                return None
            return filt.assimilate_degraded(
                decomp, background, network, y, dropped=expected, rng=1
            )[0]

        reference = degraded(states)
        with tempfile.TemporaryDirectory() as tmp:
            store = EnsembleStore(Path(tmp) / "ens", grid)
            for name, planner in self.PLANNERS.items():
                store.write_ensemble(states)  # undo the last truncations
                plan = planner(decomp, store.layout, N_MEMBERS)
                clean, _ = stage_plan_from_disk(plan, store)
                faulty = FaultyStore(store, sched)
                before = open_descriptors()
                staged, dropped = stage_plan_from_disk(
                    plan, faulty, retry=retry, report=faulty.report
                )
                assert open_descriptors() == before, name
                assert dropped == expected, name
                assert sorted(faulty.report.members_dropped) == expected, name
                assert faulty.report.failed_ops == len(expected), name
                # the first op of a member takes all its faults
                assert faulty.report.disk_faults == sum(failures), name
                assert faulty.report.retries == sum(
                    min(f, retry.max_retries) for f in failures
                ), name
                assert np.isnan(staged[:, dropped]).all(), name
                assert np.array_equal(
                    staged[:, surviving], clean[:, surviving]
                ), name
                analysed = degraded(staged)
                if reference is not None:
                    assert np.array_equal(analysed, reference), name
