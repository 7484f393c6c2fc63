"""Tests for the reading strategies: seek counts, coverage, equivalence."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.core import Decomposition, Grid
from repro.data import EnsembleStore, stage_plan_from_disk
from repro.faults import RetryPolicy
from repro.io import (
    FileLayout,
    ReadOp,
    ReadPlan,
    SendOp,
    bar_read_plan,
    block_read_plan,
    concurrent_access_plan,
    simulate_read_plan,
    single_reader_plan,
)


def setup(n_x=24, n_y=12, n_sdx=4, n_sdy=3, xi=2, eta=1, h=8):
    grid = Grid(n_x=n_x, n_y=n_y)
    decomp = Decomposition(grid, n_sdx=n_sdx, n_sdy=n_sdy, xi=xi, eta=eta)
    layout = FileLayout(grid=grid, h_bytes=h)
    return grid, decomp, layout


def make_members(grid, n_files, seed=0):
    rng = np.random.default_rng(seed)
    return {f: rng.normal(size=grid.n) for f in range(n_files)}


def gather(plan, members):
    """``rank -> file -> values``: each op's elements from ``members``."""
    return {
        rank: {op.file_id: members[op.file_id][op.indices()]
               for op in rank_plan.reads}
        for rank, rank_plan in plan.per_rank.items()
    }


class TestSingleReader:
    def test_one_reader_full_files(self):
        _, decomp, layout = setup()
        plan = single_reader_plan(decomp, layout, n_files=4)
        assert plan.reader_ranks == [0]
        rp = plan.per_rank[0]
        assert len(rp.reads) == 4
        assert all(op.seeks == 1 for op in rp.reads)
        assert rp.total_elems == 4 * layout.file_elems

    def test_serial_sends_to_every_other_rank(self):
        _, decomp, layout = setup()
        plan = single_reader_plan(decomp, layout, n_files=2)
        sends = plan.per_rank[0].sends
        assert len(sends) == 2 * (decomp.n_subdomains - 1)
        assert all(s.source == 0 for s in sends)
        dests = {s.dest for s in sends}
        assert dests == set(range(1, decomp.n_subdomains))


class TestBlockPlan:
    def test_every_compute_rank_reads(self):
        _, decomp, layout = setup()
        plan = block_read_plan(decomp, layout, n_files=3)
        assert plan.reader_ranks == list(range(decomp.n_subdomains))
        assert not any(p.sends for p in plan.per_rank.values())

    def test_seeks_per_file_equal_expansion_rows_times_runs(self):
        _, decomp, layout = setup()
        plan = block_read_plan(decomp, layout, n_files=1)
        # Interior sub-domain (1, 1): 4+2 eta rows, single column run.
        sd = decomp.subdomain(1, 1)
        rank = decomp.rank_of(1, 1)
        op = plan.per_rank[rank].reads[0]
        assert op.seeks == len(sd.exp_y_indices)

    def test_wrapped_subdomain_costs_two_runs_per_row(self):
        _, decomp, layout = setup()
        sd = decomp.subdomain(0, 1)  # wraps the longitude seam
        rank = decomp.rank_of(0, 1)
        plan = block_read_plan(decomp, layout, n_files=1)
        op = plan.per_rank[rank].reads[0]
        assert op.seeks == 2 * len(sd.exp_y_indices)

    def test_total_seeks_scale_linearly_with_n_sdx(self):
        """The paper's O(n_y * n_sdx) law (Sec. 4.1.1, Fig. 5)."""
        totals = {}
        for n_sdx in (2, 4, 8):
            _, decomp, layout = setup(n_x=48, n_y=12, n_sdx=n_sdx, xi=0, eta=0)
            plan = block_read_plan(decomp, layout, n_files=1)
            totals[n_sdx] = plan.total_seeks
        assert totals[4] == 2 * totals[2]
        assert totals[8] == 4 * totals[2]

    def test_reads_exactly_the_expansion(self):
        grid, decomp, layout = setup()
        plan = block_read_plan(decomp, layout, n_files=1)
        for sd in decomp:
            rank = decomp.rank_of(sd.i, sd.j)
            got = set(plan.per_rank[rank].reads[0].indices())
            assert got == set(sd.expansion_flat)


class TestConcurrentAccessPlan:
    def test_io_rank_numbering(self):
        _, decomp, layout = setup()
        plan = concurrent_access_plan(decomp, layout, n_files=4, n_cg=2)
        io_base = decomp.n_subdomains
        expected = [io_base + g * 3 + j for g in range(2) for j in range(3)]
        assert plan.reader_ranks == sorted(expected)

    def test_bar_reads_are_single_seek(self):
        _, decomp, layout = setup()
        plan = concurrent_access_plan(decomp, layout, n_files=4, n_cg=2)
        for rank in plan.reader_ranks:
            assert all(op.seeks == 1 for op in plan.per_rank[rank].reads)

    def test_group_file_assignment_partition(self):
        _, decomp, layout = setup()
        n_files, n_cg = 6, 3
        plan = concurrent_access_plan(decomp, layout, n_files, n_cg)
        io_base = decomp.n_subdomains
        for g in range(n_cg):
            rank = io_base + g * decomp.n_sdy  # bar 0 of group g
            files = [op.file_id for op in plan.per_rank[rank].reads]
            assert files == list(range(g, n_files, n_cg))
            assert len(files) == n_files // n_cg

    def test_divisibility_enforced(self):
        _, decomp, layout = setup()
        with pytest.raises(ValueError):
            concurrent_access_plan(decomp, layout, n_files=5, n_cg=2)

    def test_sends_cover_all_compute_ranks_per_file(self):
        _, decomp, layout = setup()
        plan = concurrent_access_plan(decomp, layout, n_files=2, n_cg=1)
        sends = [s for p in plan.per_rank.values() for s in p.sends]
        for f in range(2):
            dests = sorted(s.dest for s in sends if s.tag == f)
            assert dests == list(range(decomp.n_subdomains))

    @pytest.mark.parametrize(
        "shape,n_files,n_cg",
        [((24, 12, 4, 3, 2, 1), 6, 3), ((600, 300, 20, 10, 2, 2), 24, 2)],
        ids=["small", "io_bar"],
    )
    def test_plan_equals_per_file_construction(self, shape, n_files, n_cg):
        """Per-bar send lists are built once and reused across files and
        groups; the plan equals the one built op by op, per (group, bar,
        file, compute rank), with every op validated."""
        n_x, n_y, n_sdx, n_sdy, xi, eta = shape
        _, decomp, layout = setup(n_x, n_y, n_sdx, n_sdy, xi, eta)
        oracle = ReadPlan(
            strategy=f"concurrent[{n_cg}]", layout=layout, n_files=n_files
        )
        for g in range(n_cg):
            for j in range(decomp.n_sdy):
                io_rank = decomp.n_subdomains + g * decomp.n_sdy + j
                rp = oracle.rank_plan(io_rank)
                iy0, iy1 = decomp.bar_read_rows(j)
                extents = tuple(layout.bar_extents(iy0, iy1))
                for f in range(g, n_files, n_cg):
                    rp.reads.append(ReadOp(file_id=f, extents=extents))
                    for i in range(decomp.n_sdx):
                        sd = decomp.subdomain(i, j)
                        rp.sends.append(SendOp(
                            source=io_rank,
                            dest=decomp.rank_of(i, j),
                            n_elems=len(sd.exp_x_indices) * (iy1 - iy0),
                            tag=f,
                        ))
        plan = concurrent_access_plan(decomp, layout, n_files, n_cg)
        assert list(plan.per_rank) == list(oracle.per_rank)
        assert plan == oracle

    def test_send_sizes_match_expansion_blocks(self):
        _, decomp, layout = setup()
        plan = concurrent_access_plan(decomp, layout, n_files=1, n_cg=1)
        sends = [s for p in plan.per_rank.values() for s in p.sends]
        for s in sends:
            sd = decomp.subdomain_of_rank(s.dest)
            iy0, iy1 = decomp.bar_read_rows(sd.j)
            assert s.n_elems == len(sd.exp_x_indices) * (iy1 - iy0)

    def test_bar_plan_is_single_group(self):
        _, decomp, layout = setup()
        plan = bar_read_plan(decomp, layout, n_files=4)
        assert plan.strategy == "bar"
        assert len(plan.reader_ranks) == decomp.n_sdy


class TestDataEquivalence:
    """All strategies must put the same data within reach of each rank."""

    def test_block_reads_cover_dest_blocks_of_bar_sends(self):
        grid, decomp, layout = setup()
        members = make_members(grid, n_files=2)
        block = block_read_plan(decomp, layout, n_files=2)
        bars = bar_read_plan(decomp, layout, n_files=2)
        got_block = gather(block, members)
        got_bars = gather(bars, members)

        # Bar j's reader holds a superset of every band-j block, for each file.
        io_base = decomp.n_subdomains
        for sd in decomp:
            rank = decomp.rank_of(sd.i, sd.j)
            bar_rank = io_base + sd.j
            for f in range(2):
                block_vals = set(np.round(got_block[rank][f], 12))
                bar_vals = set(np.round(got_bars[bar_rank][f], 12))
                assert block_vals.issubset(bar_vals)

    def test_block_plan_gathers_expansion_values_exactly(self):
        grid, decomp, layout = setup()
        members = make_members(grid, n_files=1)
        plan = block_read_plan(decomp, layout, n_files=1)
        got = gather(plan, members)
        for sd in decomp:
            rank = decomp.rank_of(sd.i, sd.j)
            expected = np.sort(members[0][sd.expansion_flat])
            assert np.allclose(np.sort(got[rank][0]), expected)

    def test_union_of_bars_covers_file(self):
        grid, decomp, layout = setup()
        plan = bar_read_plan(decomp, layout, n_files=1)
        covered = set()
        for p in plan.per_rank.values():
            for op in p.reads:
                covered.update(op.indices())
        assert covered == set(range(grid.n))

    def test_missing_member_raises(self, tmp_path):
        """Staged from a store that lacks member 1, a plan fails on it;
        under a retry policy member 1 alone is dropped."""
        grid, decomp, _ = setup()
        store = EnsembleStore(tmp_path, grid)
        store.write_member(0, make_members(grid, n_files=1)[0])
        plan = block_read_plan(decomp, store.layout, n_files=2)
        with pytest.raises(FileNotFoundError):
            stage_plan_from_disk(plan, store)
        staged, dropped = stage_plan_from_disk(
            plan, store, retry=RetryPolicy.none()
        )
        assert dropped == [1] and np.isnan(staged[:, 1]).all()
        assert np.array_equal(staged[:, 0], store.read_member(0))


class TestSimulatedReading:
    def machine(self, **kw):
        defaults = dict(
            seek_time=1e-3, theta=1e-8, n_storage_nodes=3, disk_concurrency=2
        )
        defaults.update(kw)
        return Machine(MachineSpec(**defaults))

    def test_simulation_produces_timeline(self):
        _, decomp, layout = setup()
        plan = block_read_plan(decomp, layout, n_files=2)
        timeline, makespan = simulate_read_plan(self.machine(), plan)
        assert makespan > 0
        assert set(timeline.ranks()).issubset(set(plan.reader_ranks))

    def test_block_read_time_grows_with_n_sdx(self):
        """Fig. 5's shape at miniature scale."""
        times = {}
        for n_sdx in (2, 4, 8):
            _, decomp, layout = setup(n_x=48, n_y=12, n_sdx=n_sdx, n_sdy=3,
                                      xi=0, eta=0)
            plan = block_read_plan(decomp, layout, n_files=2)
            _, makespan = simulate_read_plan(self.machine(), plan)
            times[n_sdx] = makespan
        assert times[2] < times[4] < times[8]

    def test_concurrent_groups_speed_up_reading(self):
        """Fig. 10's shape: more groups -> faster, until disks saturate."""
        _, decomp, layout = setup(n_x=48, n_y=12, n_sdy=3)
        times = {}
        for n_cg in (1, 3):
            plan = concurrent_access_plan(decomp, layout, n_files=6, n_cg=n_cg)
            _, makespan = simulate_read_plan(self.machine(), plan)
            times[n_cg] = makespan
        assert times[3] < times[1]

    def test_bar_faster_than_block_per_seek_costs(self):
        """With seek-dominated service, bar reading wins decisively."""
        _, decomp, layout = setup(n_x=48, n_y=12, n_sdx=8, n_sdy=3, xi=2, eta=1)
        machine_a = self.machine(seek_time=1e-2, theta=1e-9)
        machine_b = self.machine(seek_time=1e-2, theta=1e-9)
        _, t_block = simulate_read_plan(
            machine_a, block_read_plan(decomp, layout, n_files=2)
        )
        _, t_bar = simulate_read_plan(
            machine_b, bar_read_plan(decomp, layout, n_files=2)
        )
        assert t_bar < t_block

    def test_deterministic_repeat(self):
        _, decomp, layout = setup()
        plan = block_read_plan(decomp, layout, n_files=2)
        _, t1 = simulate_read_plan(self.machine(), plan)
        _, t2 = simulate_read_plan(self.machine(), plan)
        assert t1 == t2
