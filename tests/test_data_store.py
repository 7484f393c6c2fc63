"""Tests for the on-disk ensemble store and real-file plan execution."""

import os
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.data.store as store_mod
from repro.core import Decomposition, Grid
from repro.data import (
    EnsembleStore,
    read_plan_from_disk,
    stage_plan_from_disk,
    write_plan_to_disk,
)
from repro.faults import CorruptMemberError, RetryPolicy
from repro.io import (
    FileLayout,
    ReadOp,
    ReadPlan,
    bar_gather_write_plan,
    bar_read_plan,
    block_read_plan,
    block_write_plan,
    concurrent_access_plan,
    single_reader_plan,
)
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_thread_metrics,
    use_thread_tracer,
    use_tracer,
)


def read_extents(store, k, extents):
    """Member ``k``'s values over ``extents``, through a one-read reader."""
    with store.extent_reader() as reader:
        return reader.read(k, tuple(map(tuple, extents)))


@pytest.fixture()
def store(tmp_path):
    return EnsembleStore(tmp_path / "ens", Grid(n_x=24, n_y=12))


@pytest.fixture()
def filled(store):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(store.grid.n, 5))
    store.write_ensemble(states)
    return store, states


@pytest.fixture(scope="module")
def read_only(tmp_path_factory):
    """One filled store for the whole module: hypothesis only reads it."""
    store = EnsembleStore(tmp_path_factory.mktemp("ens"), Grid(n_x=24, n_y=12))
    states = np.random.default_rng(0).normal(size=(store.grid.n, 5))
    store.write_ensemble(states)
    return store, states


class TestEnsembleStore:
    def test_roundtrip_member(self, store):
        state = np.arange(float(store.grid.n))
        store.write_member(0, state)
        assert np.array_equal(store.read_member(0), state)

    def test_roundtrip_ensemble(self, filled):
        store, states = filled
        assert np.allclose(store.read_ensemble(), states)

    def test_n_members(self, filled):
        store, _ = filled
        assert store.n_members() == 5

    def test_layout_matches_dtype(self, store):
        assert store.layout.h_bytes == 8
        assert store.layout.file_bytes == store.grid.n * 8

    def test_wrong_shape_rejected(self, store):
        with pytest.raises(ValueError):
            store.write_member(0, np.zeros(5))
        with pytest.raises(ValueError):
            store.write_ensemble(np.zeros((5, 2)))

    def test_missing_member_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.read_member(3)

    def test_empty_store_read_raises(self, store):
        with pytest.raises(FileNotFoundError):
            store.read_ensemble()

    def test_negative_index_rejected(self, store):
        with pytest.raises(ValueError):
            store.member_path(-1)

    def test_file_is_latitude_row_major(self, store):
        """Row iy of the field occupies bytes [iy*n_x .. (iy+1)*n_x) * 8."""
        grid = store.grid
        field = np.arange(float(grid.n)).reshape(grid.n_y, grid.n_x)
        store.write_member(0, field.ravel())
        raw = np.fromfile(store.member_path(0), dtype="<f8")
        assert np.array_equal(raw[grid.n_x : 2 * grid.n_x], field[1])

    def test_read_extents_with_real_seeks(self, filled):
        store, states = filled
        extents = [(0, 3), (30, 5), (100, 2)]
        got = read_extents(store, 1, extents)
        want = np.concatenate(
            [states[s : s + l, 1] for s, l in extents]
        )
        assert np.allclose(got, want)

    def test_read_extents_out_of_range(self, filled):
        store, _ = filled
        with pytest.raises(ValueError):
            read_extents(store, 0, [(store.grid.n - 1, 5)])

    def test_read_no_extents_is_empty(self, filled):
        """``ReadOp(f, ())`` is a valid op: it reads nothing."""
        store, _ = filled
        op = ReadOp(file_id=1, extents=())
        got = read_extents(store, op.file_id, list(op.extents))
        assert got.shape == (0,) and got.dtype == np.float64
        with pytest.raises(FileNotFoundError):
            read_extents(store, 9, [])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_extents_read_equal_to_indexing(self, read_only, data):
        """Unsorted, repeated and overlapping extents included."""
        store, states = read_only
        n = store.grid.n
        extents = data.draw(st.lists(
            st.integers(0, n - 1).flatmap(
                lambda start: st.tuples(
                    st.just(start), st.integers(1, n - start)
                )
            ),
            max_size=12,
        ))
        k = data.draw(st.integers(0, states.shape[1] - 1))
        got = read_extents(store, k, extents)
        assert np.array_equal(
            got, states[FileLayout.extent_indices(extents), k]
        )


def open_descriptors() -> int:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    return len(os.listdir("/proc/self/fd"))


every_reader = pytest.mark.parametrize(
    "reader", ["read_extents", "read_plan_from_disk", "stage_plan_from_disk"]
)


class TestExtentErrorBoundary:
    """Each failure keeps its type and text, and leaks no descriptor."""

    @pytest.fixture()
    def plan(self, filled):
        store, _ = filled
        decomp = Decomposition(store.grid, n_sdx=4, n_sdy=3, xi=2, eta=1)
        return block_read_plan(decomp, store.layout, n_files=5)

    @staticmethod
    def readers(store, plan):
        return {
            "read_extents": lambda: read_extents(
                store, 2, [(0, 3), (40, 8), (200, 24)]
            ),
            "read_plan_from_disk": lambda: read_plan_from_disk(plan, store),
            "stage_plan_from_disk": lambda: stage_plan_from_disk(plan, store),
        }

    @every_reader
    def test_truncated_member(self, filled, plan, reader):
        store, _ = filled
        with open(store.member_path(2), "r+b") as fh:
            fh.truncate(100 * 8)
        before = open_descriptors()
        with pytest.raises(CorruptMemberError) as err:
            self.readers(store, plan)[reader]()
        assert open_descriptors() == before
        assert err.value.member == 2
        assert "100 of 288 expected values present" in str(err.value)
        if reader == "read_extents":  # the first extent beyond the end
            assert "extent (200, 24) beyond end of" in str(err.value)

    @every_reader
    def test_short_positional_read(self, filled, plan, reader, monkeypatch):
        store, _ = filled
        real = os.preadv

        def short(fd, buffers, offset):
            (buffer,) = buffers
            return real(fd, [buffer[: len(buffer) - 8]], offset)

        monkeypatch.setattr(store_mod.os, "preadv", short)
        before = open_descriptors()
        with pytest.raises(CorruptMemberError, match="short read on .* got"):
            self.readers(store, plan)[reader]()
        assert open_descriptors() == before

    @pytest.mark.parametrize(
        "extents, named",
        [
            ([(0, 4), (-1, 2)], "(-1, 2)"),
            ([(5, 0), (-1, 2)], "(5, 0)"),
            ([(0, 4), (280, 9), (0, 400)], "(280, 9)"),
        ],
    )
    def test_logical_range_is_a_value_error(self, filled, extents, named):
        store, _ = filled
        before = open_descriptors()
        with pytest.raises(ValueError) as err:
            read_extents(store, 0, extents)
        assert open_descriptors() == before
        assert not isinstance(err.value, CorruptMemberError)
        assert str(err.value) == f"extent {named} out of range"

    @every_reader
    def test_missing_member(self, filled, plan, reader):
        store, _ = filled
        store.member_path(2).unlink()
        before = open_descriptors()
        with pytest.raises(FileNotFoundError):
            self.readers(store, plan)[reader]()
        assert open_descriptors() == before


class TestReadPlanFromDisk:
    @pytest.mark.parametrize(
        "plan_fn", [block_read_plan, bar_read_plan, single_reader_plan]
    )
    def test_disk_execution_matches_inline(self, filled, plan_fn):
        """Real seek/read execution of every strategy == in-memory gather."""
        store, states = filled
        decomp = Decomposition(store.grid, n_sdx=4, n_sdy=3, xi=2, eta=1)
        plan = plan_fn(decomp, store.layout, n_files=5)
        from_disk = read_plan_from_disk(plan, store)
        assert from_disk.keys() == plan.per_rank.keys()
        for rank, rank_plan in plan.per_rank.items():
            files = {op.file_id for op in rank_plan.reads}
            assert from_disk[rank].keys() == files
            for op in rank_plan.reads:
                want = states[op.indices(), op.file_id]
                assert np.array_equal(from_disk[rank][op.file_id], want)

    def test_block_plan_delivers_expansions_from_disk(self, filled):
        store, states = filled
        decomp = Decomposition(store.grid, n_sdx=2, n_sdy=2, xi=2, eta=1)
        plan = block_read_plan(decomp, store.layout, n_files=2)
        staged = read_plan_from_disk(plan, store)
        for sd in decomp:
            rank = decomp.rank_of(sd.i, sd.j)
            for f in range(2):
                got = np.sort(staged[rank][f])
                want = np.sort(states[sd.expansion_flat, f])
                assert np.allclose(got, want)


PLANS = {
    "single_reader": single_reader_plan,
    "block": block_read_plan,
    "bar": bar_read_plan,
    "concurrent[2]": partial(concurrent_access_plan, n_cg=2),
}


class TestStagePlanFromDisk:
    @pytest.fixture()
    def decomp(self, store):
        return Decomposition(store.grid, n_sdx=4, n_sdy=3, xi=2, eta=1)

    @pytest.mark.parametrize("name", PLANS)
    def test_bit_identical_to_written_and_to_scatter(
        self, store, decomp, name
    ):
        states = np.random.default_rng(1).normal(size=(store.grid.n, 6))
        store.write_ensemble(states)
        plan = PLANS[name](decomp, store.layout, n_files=6)
        staged, dropped = stage_plan_from_disk(plan, store)
        assert dropped == []
        assert staged.shape == states.shape and staged.dtype == np.float64
        assert staged.flags.c_contiguous
        assert np.array_equal(staged, states)
        # the benchmark harness's stage step, from the rank -> file dicts
        scattered = np.empty_like(states)
        data = read_plan_from_disk(plan, store)
        for rank, per_file in data.items():
            for op in plan.per_rank[rank].reads:
                scattered[op.indices(), op.file_id] = per_file[op.file_id]
        assert np.array_equal(staged, scattered)
        # a retry policy on a clean store changes nothing
        retried, dropped = stage_plan_from_disk(plan, store, retry=RetryPolicy())
        assert dropped == [] and np.array_equal(retried, staged)

    def test_hole_is_an_error_not_uninitialised_memory(self, filled, decomp):
        store, _ = filled
        plan = block_read_plan(decomp, store.layout, n_files=5)
        victim = plan.per_rank[decomp.rank_of(1, 1)].reads
        # file 3 loses the only op that covers sub-domain (1, 1)'s interior
        victim[:] = [op for op in victim if op.file_id != 3]
        covered = np.zeros(store.grid.n, dtype=bool)
        for rank_plan in plan.per_rank.values():
            for op in rank_plan.reads:
                if op.file_id == 3:
                    covered[op.indices()] = True
        hole = int(covered.argmin())
        assert not covered[hole]
        with pytest.raises(
            ValueError, match=f"leaves element {hole} of file 3 unread"
        ):
            stage_plan_from_disk(plan, store)

    def test_file_without_ops_is_a_hole(self, filled, decomp):
        store, _ = filled
        plan = bar_read_plan(decomp, store.layout, n_files=4)
        plan.n_files = 5
        with pytest.raises(ValueError, match="element 0 of file 4 unread"):
            stage_plan_from_disk(plan, store)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_plan_is_staged_or_names_its_first_hole(self, read_only, data):
        store, states = read_only
        n = store.grid.n
        extent = st.integers(0, n - 1).flatmap(
            lambda start: st.tuples(st.just(start), st.integers(1, n - start))
        )
        ops = data.draw(st.lists(
            st.tuples(
                st.integers(0, 1),
                st.lists(extent, min_size=1, max_size=4).map(tuple),
            ),
            max_size=8,
        ))
        plan = ReadPlan("drawn", store.layout, n_files=2)
        plan.rank_plan(0).reads = [ReadOp(f, extents) for f, extents in ops]
        covered = np.zeros((2, n), dtype=bool)
        for f, extents in ops:
            covered[f, FileLayout.extent_indices(list(extents))] = True
        holes = [
            (f, int(covered[f].argmin()))
            for f in range(2) if not covered[f].all()
        ]
        if holes:
            f, hole = holes[0]
            with pytest.raises(
                ValueError, match=f"leaves element {hole} of file {f} unread$"
            ):
                stage_plan_from_disk(plan, store)
        else:
            staged, dropped = stage_plan_from_disk(plan, store)
            assert dropped == [] and np.array_equal(staged, states[:, :2])


class TestReadTelemetry:
    def test_traced_run_is_the_untraced_run_plus_spans(self, filled):
        store, _ = filled
        decomp = Decomposition(store.grid, n_sdx=4, n_sdy=3, xi=2, eta=1)
        plan = block_read_plan(decomp, store.layout, n_files=5)
        plan_ops = sum(len(rp.reads) for rp in plan.per_rank.values())
        untraced = read_plan_from_disk(plan, store)
        metrics = MetricsRegistry()
        with use_tracer(Tracer()) as tracer, use_metrics(metrics):
            traced = read_plan_from_disk(plan, store)

        spans = [s for s in tracer.spans if s.name == "store.read_extents"]
        assert len(spans) == plan_ops
        assert all(set(s.attrs) >= {"member", "seeks", "bytes"} for s in spans)
        assert sum(s.attrs["seeks"] for s in spans) == plan.total_seeks
        assert sum(s.attrs["bytes"] for s in spans) == plan.total_bytes_read()
        assert metrics.counter("io.extent_reads").value == plan_ops
        assert metrics.counter("io.seeks").value == plan.total_seeks
        assert metrics.counter("io.bytes_read").value == plan.total_bytes_read()
        names = {s.name for s in tracer.spans}
        assert {"io.read_plan", "io.read_plan.rank"} <= names
        for rank, per_file in untraced.items():
            for f, values in per_file.items():
                assert np.array_equal(traced[rank][f], values)


class TestAtomicWrites:
    """write_member stages + fsyncs + os.replace: no torn member is visible."""

    def test_crash_before_commit_keeps_previous_member(self, store, monkeypatch):
        import repro.data.store as store_mod

        original = np.arange(float(store.grid.n))
        store.write_member(0, original)

        def crash(src, dst):
            raise OSError("injected crash between stage and commit")

        monkeypatch.setattr(store_mod.os, "replace", crash)
        with pytest.raises(OSError):
            store.write_member(0, original + 1.0)
        monkeypatch.undo()
        # The staged bytes never replaced the committed file: a reader
        # still sees the previous complete member, bit for bit.
        assert np.array_equal(store.read_member(0), original)

    def test_staging_litter_invisible_to_readers(self, filled):
        store, states = filled
        litter = store.member_path(2).with_name("member_00002.bin.tmp")
        litter.write_bytes(b"torn half-write")
        assert store.n_members() == 5
        assert np.allclose(store.read_ensemble(), states)

    def test_commit_overwrites_stale_staging(self, store):
        stale = store.member_path(0).with_name("member_00000.bin.tmp")
        stale.write_bytes(b"stale staging from an earlier crash")
        state = np.arange(float(store.grid.n))
        store.write_member(0, state)
        assert np.array_equal(store.read_member(0), state)


WRITE_PLANS = {
    "bar_gather[1]": partial(bar_gather_write_plan, n_cg=1),
    "bar_gather[2]": partial(bar_gather_write_plan, n_cg=2),
    "block": block_write_plan,
    "bar_read (overlapping halos)": bar_read_plan,
}


class TestWritePlanToDisk:
    """Every write commits through one body: one positional write per
    extent, then fsync, then the rename, members on a writer pool."""

    N = 8

    @pytest.fixture()
    def old(self, store):
        states = np.random.default_rng(2).normal(size=(store.grid.n, self.N))
        store.write_ensemble(states)
        return states

    @pytest.fixture()
    def new(self, store):
        return np.random.default_rng(3).normal(size=(store.grid.n, self.N))

    @pytest.fixture()
    def decomp(self, store):
        return Decomposition(store.grid, n_sdx=4, n_sdy=3, xi=2, eta=1)

    def assert_old_or_new(self, store, old, new):
        """The torn-write contract: each member file is either the
        previous complete one or the new complete one."""
        files = store.read_ensemble()
        for k in range(self.N):
            assert np.array_equal(files[:, k], old[:, k]) or np.array_equal(
                files[:, k], new[:, k]
            ), f"member {k} is neither old nor new"
        return files

    @pytest.mark.parametrize("name", WRITE_PLANS)
    def test_plan_reads_back_bit_identical(self, store, decomp, old, new, name):
        plan = WRITE_PLANS[name](decomp, store.layout, n_files=self.N)
        paths = write_plan_to_disk(plan, new, store)
        assert paths == [store.member_path(k) for k in range(self.N)]
        assert np.array_equal(store.read_ensemble(), new)
        assert not list(store.directory.glob("*.tmp"))

    def test_write_ensemble_reads_back_bit_identical(self, store, old, new):
        assert store.write_ensemble(new) == [
            store.member_path(k) for k in range(self.N)
        ]
        assert np.array_equal(store.read_ensemble(), new)
        assert not list(store.directory.glob("*.tmp"))

    def test_gap_raises_before_any_file_is_opened(
        self, store, decomp, old, new
    ):
        plan = block_write_plan(decomp, store.layout, n_files=self.N)
        victim = plan.per_rank[decomp.rank_of(1, 1)].reads
        victim[:] = [op for op in victim if op.file_id != 3]
        sd = decomp.subdomain(1, 1)
        hole = sd.iy0 * store.grid.n_x + sd.ix0
        with pytest.raises(
            ValueError, match=f"leaves element {hole} of file 3 unwritten$"
        ):
            write_plan_to_disk(plan, new, store)
        assert not list(store.directory.glob("*.tmp"))
        assert np.array_equal(store.read_ensemble(), old)

    def test_states_must_match_the_plan(self, store, decomp, old, new):
        plan = block_write_plan(decomp, store.layout, n_files=self.N)
        with pytest.raises(ValueError, match=r"ensemble must be \(288, 8\)"):
            write_plan_to_disk(plan, new[:, :5], store)

    def test_each_fsync_precedes_its_own_replace(
        self, store, decomp, old, new, monkeypatch
    ):
        events, opened = [], {}
        real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

        def record_open(path, flags, mode=0o777):
            fd = real_open(path, flags, mode)
            opened[fd] = str(path)  # an fd is reused only after its close
            return fd

        def record_fsync(fd):
            events.append(("fsync", opened[fd]))
            real_fsync(fd)

        def record_replace(src, dst):
            events.append(("replace", str(src)))
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "open", record_open)
        monkeypatch.setattr(store_mod.os, "fsync", record_fsync)
        monkeypatch.setattr(store_mod.os, "replace", record_replace)
        plan = bar_gather_write_plan(decomp, store.layout, self.N, n_cg=2)
        write_plan_to_disk(plan, new, store)
        monkeypatch.undo()
        assert len(events) == 2 * self.N
        for k in range(self.N):
            tmp = f"{store.member_path(k)}.tmp"
            assert events.count(("fsync", tmp)) == 1
            assert events.index(("fsync", tmp)) < events.index(("replace", tmp))
        assert np.array_equal(store.read_ensemble(), new)

    def test_failed_replace_propagates_and_leaks_nothing(
        self, store, old, new, monkeypatch
    ):
        fds, threads = open_descriptors(), threading.active_count()
        real_replace = os.replace

        def replace(src, dst):
            if dst == store.member_path(5):
                raise OSError("injected: rename of member 5 failed")
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace)
        with pytest.raises(OSError, match="rename of member 5 failed"):
            store.write_ensemble(new)
        monkeypatch.undo()
        assert open_descriptors() == fds
        assert threading.active_count() == threads
        files = self.assert_old_or_new(store, old, new)
        # the members before the failure were in flight and finished
        assert np.array_equal(files[:, :5], new[:, :5])
        assert np.array_equal(files[:, 5], old[:, 5])

    def test_first_failure_in_member_order_is_raised(
        self, store, old, new, monkeypatch
    ):
        real_replace = os.replace

        def replace(src, dst):
            if dst == store.member_path(1):
                time.sleep(0.05)  # fails after member 2 has failed
                raise OSError("injected: member 1")
            if dst == store.member_path(2):
                raise OSError("injected: member 2")
            real_replace(src, dst)

        monkeypatch.setattr(store_mod.os, "replace", replace)
        with pytest.raises(OSError, match="member 1$"):
            store.write_ensemble(new)
        monkeypatch.undo()
        self.assert_old_or_new(store, old, new)

    def test_no_member_starts_after_a_failure(
        self, store, old, new, monkeypatch
    ):
        def replace(src, dst):
            raise OSError("injected: every rename fails")

        # a window of one: writing member 1 waits until member 0 is done
        monkeypatch.setattr(store_mod, "_WRITE_WINDOW", 1)
        monkeypatch.setattr(store_mod.os, "replace", replace)
        started = []
        whole = (((0, store.grid.n),),)
        with pytest.raises(OSError, match="every rename fails"):
            with store.extent_writer(before_write=started.append) as writer:
                for k in range(self.N):
                    writer.write(k, whole, new[:, k])
        monkeypatch.undo()
        assert started == [0]
        assert np.array_equal(store.read_ensemble(), old)

    def test_short_positional_write_raises(self, store, old, new, monkeypatch):
        real = os.pwritev

        def short(fd, buffers, offset):
            (buffer,) = buffers
            return real(fd, [buffer[: len(buffer) - 8]], offset)

        monkeypatch.setattr(store_mod.os, "pwritev", short)
        before = open_descriptors()
        with pytest.raises(
            OSError,
            match="short write on .*member_00000.bin.tmp: 2296 of 2304 bytes "
            "at element 0",
        ):
            store.write_ensemble(new)
        monkeypatch.undo()
        assert open_descriptors() == before
        assert np.array_equal(store.read_ensemble(), old)


class TestWriteTelemetry:
    def test_writer_threads_record_into_the_callers_tracer(self, store):
        n, n_members = store.grid.n, 6
        states = np.random.default_rng(4).normal(size=(n, n_members))
        job, job_metrics, ambient = Tracer(), MetricsRegistry(), Tracer()
        with use_tracer(ambient), use_thread_tracer(job), use_thread_metrics(
            job_metrics
        ):
            store.write_ensemble(states)
        spans = [s for s in job.spans if s.name == "store.write_member"]
        assert sorted(s.attrs["member"] for s in spans) == list(range(n_members))
        assert all(s.attrs["bytes"] == n * 8 for s in spans)
        assert all(s.track.startswith("senkf-write") for s in spans)
        assert not ambient.spans
        assert job_metrics.counter("io.members_written").value == n_members
        assert job_metrics.counter("io.bytes_written").value == n * n_members * 8

    def test_counts_hold_under_fast_thread_switching(self, store):
        """More members than writer threads, threads switched every
        microsecond: no span or count is lost and every file lands."""
        n, n_members = store.grid.n, 64
        states = np.random.default_rng(5).normal(size=(n, n_members))
        metrics = MetricsRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with use_tracer(Tracer()) as tracer, use_metrics(metrics):
                store.write_ensemble(states)
        finally:
            sys.setswitchinterval(interval)
        spans = [s for s in tracer.spans if s.name == "store.write_member"]
        assert sorted(s.attrs["member"] for s in spans) == list(range(n_members))
        assert metrics.counter("io.members_written").value == n_members
        assert metrics.counter("io.bytes_written").value == n * n_members * 8
        assert np.array_equal(store.read_ensemble(), states)
