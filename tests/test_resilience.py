"""Resilience tests for the real-file path and degraded-mode analysis.

Covers :class:`FaultyStore` (injected transient failures and physical
corruption), the resilient readers (retry-until-clean, member dropping),
typed corruption detection in the genuine store, graceful degradation in
the filters (bit-identity of the compensated ``N - k`` analysis), and the
hypothesis property that all four reading strategies deliver byte-identical
data when their reads go through the retry loop.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Decomposition, Grid
from repro.core.observations import ObservationNetwork
from repro.data.store import EnsembleStore, read_plan_from_disk
from repro.faults import (
    CorruptMemberError,
    FaultSchedule,
    FaultyStore,
    MemberUnrecoverableError,
    ResilienceReport,
    RetryPolicy,
    read_ensemble_resilient,
    read_plan_from_disk_resilient,
)
from repro.filters.distributed import DistributedEnKF
from repro.io import (
    bar_read_plan,
    block_read_plan,
    concurrent_access_plan,
    single_reader_plan,
)
from tests.test_data_store import open_descriptors

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


# ---------------------------------------------------------------------------
# FaultyStore
# ---------------------------------------------------------------------------
class TestFaultyStore:
    def test_transient_failures_then_clean_data(self, filled, states):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=2)
        faulty = FaultyStore(filled, sched)
        got, surviving, dropped = read_ensemble_resilient(
            faulty, retry=RetryPolicy(max_retries=3), report=faulty.report
        )
        assert dropped == []
        assert surviving == list(range(N_MEMBERS))
        assert np.array_equal(got, states)
        # Two injected failures per member, each retried once.
        assert faulty.report.retries == 2 * N_MEMBERS
        assert faulty.report.disk_faults == 2 * N_MEMBERS

    def test_retries_exhausted_drops_members(self, filled):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=5)
        faulty = FaultyStore(filled, sched)
        with pytest.raises(MemberUnrecoverableError):
            read_ensemble_resilient(faulty, retry=RetryPolicy(max_retries=1))

    def test_corruption_damages_real_bytes(self, filled):
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = [k for k in range(N_MEMBERS) if sched.member_corrupt(k)]
        assert corrupt, "seed must corrupt at least one member for this test"
        faulty = FaultyStore(filled, sched)
        with pytest.raises((CorruptMemberError, MemberUnrecoverableError)):
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
            _, surviving, dropped = read_ensemble_resilient(
                faulty, retry=RetryPolicy(max_retries=2)
            )
            return surviving, dropped, faulty.report.retries

        assert run() == run()


# ---------------------------------------------------------------------------
# Resilient readers: degradation
# ---------------------------------------------------------------------------
class TestResilientReaders:
    def test_corrupt_member_dropped_survivors_intact(self, filled, states):
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = sorted(k for k in range(N_MEMBERS) if sched.member_corrupt(k))
        assert 0 < len(corrupt) <= N_MEMBERS - 2
        faulty = FaultyStore(filled, sched)
        got, surviving, dropped = read_ensemble_resilient(
            faulty, retry=RetryPolicy(max_retries=2), report=faulty.report
        )
        assert dropped == corrupt
        assert surviving == [k for k in range(N_MEMBERS) if k not in corrupt]
        assert np.array_equal(got, states[:, surviving])
        assert faulty.report.members_dropped == corrupt

    def test_plan_reader_drops_member_everywhere(self, filled, states, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        plan = bar_read_plan(decomp, filled.layout, n_files=N_MEMBERS)
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        corrupt = sorted(k for k in range(N_MEMBERS) if sched.member_corrupt(k))
        faulty = FaultyStore(filled, sched)
        report = ResilienceReport()
        out, dropped = read_plan_from_disk_resilient(
            plan, faulty, retry=RetryPolicy(max_retries=2), report=report
        )
        assert dropped == corrupt
        clean = read_plan_from_disk(plan, filled_clean(filled, states))
        for rank, per_file in out.items():
            assert set(per_file) == set(clean[rank]) - set(corrupt)
            for f, values in per_file.items():
                assert np.array_equal(values, clean[rank][f])

    def test_clean_store_passthrough(self, filled, states, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        plan = block_read_plan(decomp, filled.layout, n_files=N_MEMBERS)
        out, dropped = read_plan_from_disk_resilient(plan, filled)
        assert dropped == []
        clean = read_plan_from_disk(plan, filled)
        for rank, per_file in clean.items():
            for f, values in per_file.items():
                assert np.array_equal(out[rank][f], values)


class TestPlanReaderKeepsOneDescriptorPerFile:
    """The plan-scoped reader under faults: injected faults still fire
    once per op, the counts are what the per-op reader gave, and no
    descriptor outlives the call."""

    @pytest.fixture
    def plan(self, filled, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        return block_read_plan(decomp, filled.layout, n_files=N_MEMBERS)

    def test_transient_faults_retried_per_op(self, filled, plan):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=2)
        faulty = FaultyStore(filled, sched)
        before = open_descriptors()
        out, dropped = read_plan_from_disk_resilient(
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
        clean = read_plan_from_disk(plan, filled)
        for rank, per_file in clean.items():
            for f, values in per_file.items():
                assert np.array_equal(out[rank][f], values)

    def test_exhausted_retries_drop_the_member_once(self, filled, plan):
        sched = FaultSchedule(seed=0, member_fault_rate=1.0,
                              member_fault_attempts=5)
        faulty = FaultyStore(filled, sched)
        before = open_descriptors()
        out, dropped = read_plan_from_disk_resilient(
            plan, faulty, retry=RetryPolicy(max_retries=1),
            report=faulty.report,
        )
        assert open_descriptors() == before
        assert dropped == list(range(N_MEMBERS))
        assert all(per_file == {} for per_file in out.values())
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
        with pytest.raises(CorruptMemberError) as err:
            read_plan_from_disk(plan, filled)
        assert open_descriptors() == before
        assert err.value.member == 4
        assert f"extent {beyond} beyond end of" in str(err.value)
        assert f"10 of {grid.n} expected values present" in str(err.value)
        report = ResilienceReport()
        out, dropped = read_plan_from_disk_resilient(
            plan, filled, report=report
        )
        assert open_descriptors() == before
        assert dropped == [4] and report.members_dropped == [4]
        assert report.failed_ops == 1 and report.retries == 0


def filled_clean(filled, states):
    """Rewrite any physically corrupted members so the clean reference reads."""
    for k in range(states.shape[1]):
        path = filled.member_path(k)
        if not path.exists() or path.stat().st_size != states.shape[0] * 8:
            filled.write_member(k, states[:, k])
    return filled


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
            filled.read_extents(1, [(0, grid.n)])
        # Extents inside the surviving prefix still read fine.
        assert filled.read_extents(1, [(0, 3)]).shape == (3,)

    def test_logical_out_of_range_stays_value_error(self, filled, grid):
        with pytest.raises(ValueError):
            filled.read_extents(0, [(0, grid.n + 1)])
        with pytest.raises(ValueError):
            filled.read_extents(0, [(-1, 2)])


# ---------------------------------------------------------------------------
# Graceful degradation in the filters
# ---------------------------------------------------------------------------
class TestDegradedAnalysis:
    def setup_problem(self, grid):
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        network = ObservationNetwork.regular(
            grid, every_x=3, every_y=2, obs_error_std=0.5
        )
        rng = np.random.default_rng(7)
        y = rng.standard_normal(network.m)
        return decomp, network, y

    def test_bit_identical_to_clean_surviving_run(self, grid, states):
        decomp, network, y = self.setup_problem(grid)
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
        decomp, network, y = self.setup_problem(grid)
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
        decomp, network, y = self.setup_problem(grid)
        f = DistributedEnKF(radius_km=800.0, inflation=1.05)
        f.assimilate_degraded(decomp, states, network, y, dropped=(0,))
        assert f.inflation == 1.05

    def test_too_few_survivors_rejected(self, grid, states):
        decomp, network, y = self.setup_problem(grid)
        f = DistributedEnKF(radius_km=800.0)
        with pytest.raises(ValueError, match="surviving"):
            f.assimilate_degraded(
                decomp, states, network, y, dropped=tuple(range(N_MEMBERS - 1))
            )
        with pytest.raises(ValueError, match="out of range"):
            f.assimilate_degraded(decomp, states, network, y, dropped=(99,))

    def test_end_to_end_faulty_store_to_degraded_analysis(
        self, filled, states, grid
    ):
        decomp, network, y = self.setup_problem(grid)
        sched = FaultSchedule(seed=3, member_corrupt_rate=0.5)
        faulty = FaultyStore(filled, sched)
        got, surviving, dropped = read_ensemble_resilient(
            faulty, retry=RetryPolicy(max_retries=2)
        )
        f = DistributedEnKF(radius_km=800.0, inflation=1.02)
        analysed, result = f.assimilate_degraded(
            decomp, states, network, y, dropped=dropped,
            rng=np.random.default_rng(1),
        )
        # The surviving columns read from disk are exactly the columns the
        # degraded analysis used.
        assert np.array_equal(got, states[:, surviving])
        assert analysed.shape == (grid.n, len(surviving))
        assert result.dropped == tuple(dropped)


# ---------------------------------------------------------------------------
# Property: all four strategies byte-identical under retries
# ---------------------------------------------------------------------------
class TestStrategyEquivalenceUnderFaults:
    STRATEGIES = (
        ("single_reader", lambda d, l, n: single_reader_plan(d, l, n)),
        ("block", lambda d, l, n: block_read_plan(d, l, n)),
        ("bar", lambda d, l, n: bar_read_plan(d, l, n)),
        ("concurrent", lambda d, l, n: concurrent_access_plan(d, l, n, n_cg=2)),
    )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(0.1, 1.0, allow_nan=False),
    )
    def test_resilient_reads_byte_identical_across_strategies(self, seed, rate):
        grid = Grid(n_x=12, n_y=6)
        decomp = Decomposition(grid, n_sdx=2, n_sdy=2, xi=1, eta=1)
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((grid.n, 4))
        with tempfile.TemporaryDirectory() as tmp:
            store = EnsembleStore(Path(tmp) / "ens", grid)
            store.write_ensemble(states)
            sched = FaultSchedule(seed=seed, member_fault_rate=rate,
                                  member_fault_attempts=1)
            per_strategy = {}
            retries = {}
            for name, make in self.STRATEGIES:
                plan = make(decomp, store.layout, 4)
                faulty = FaultyStore(store, sched)
                out, dropped = read_plan_from_disk_resilient(
                    plan, faulty, retry=RetryPolicy(max_retries=2),
                    report=faulty.report,
                )
                assert dropped == []
                # Element totals per file across ranks are plan-dependent;
                # compare against the plan's own clean read instead.
                clean = read_plan_from_disk(plan, store)
                for rank, per_file in clean.items():
                    for f, values in per_file.items():
                        assert np.array_equal(out[rank][f], values), (
                            name, rank, f,
                        )
                retries[name] = faulty.report.retries
                per_strategy[name] = {
                    f: np.sort(np.concatenate(
                        [pf[f] for pf in out.values() if f in pf]
                    ))
                    for f in range(4)
                }
            # Faults fire per member: every strategy retries the same members.
            faulty_members = {
                k for k in range(4) if sched.member_failures(k) > 0
            }
            if faulty_members:
                assert all(r > 0 for r in retries.values())
            # And the union of delivered elements is byte-identical across
            # strategies (sorted multiset comparison per file).
            base = per_strategy["single_reader"]
            for name, got in per_strategy.items():
                for f in range(4):
                    assert np.array_equal(
                        np.unique(got[f]), np.unique(base[f])
                    ), (name, f)
