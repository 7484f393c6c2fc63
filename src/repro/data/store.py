"""Raw-binary ensemble files, extent-based reading and writing.

File format: member ``k`` lives in ``member_0000k.bin`` as ``grid.n``
little-endian float64 values, latitude-row-major (one latitude row of
``n_x`` longitudes after another) — the storage order Sec. 4.1.1 assumes,
under which a latitude bar is one contiguous extent and a block is one
extent per row.

``h_bytes`` in the performance model bundles vertical levels; the store
keeps one 2-D level per file (``h = 8``) because the numerics operate on
2-D fields.  Multi-level states can be stored as separate fields.
"""

from __future__ import annotations

import errno
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from repro.core.grid import Grid
from repro.faults.errors import CorruptMemberError
from repro.faults.policy import RetryPolicy, run_with_retry
from repro.faults.report import ResilienceReport
from repro.io.layout import FileLayout
from repro.io.plan import ReadOp, ReadPlan
from repro.telemetry.metrics import get_metrics, use_thread_metrics
from repro.telemetry.tracer import get_tracer, use_thread_tracer

_DTYPE = np.dtype("<f8")
_ITEM = _DTYPE.itemsize
#: Member rows gathered and not yet committed, at most, and the writer
#: threads.  They mostly wait in ``fsync``, so this is not a core count;
#: each row is a whole member, so it bounds the memory a write holds.
#: 4 measured best (docs/PERFORMANCE.md §9).
_WRITE_WINDOW = 4


class EnsembleStore:
    """A directory of member files with the paper's on-disk layout."""

    def __init__(self, directory: str | Path, grid: Grid):
        self.directory = Path(directory)
        self.grid = grid
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def layout(self) -> FileLayout:
        """The layout model matching this store's files."""
        return FileLayout(grid=self.grid, h_bytes=_DTYPE.itemsize)

    def member_path(self, k: int) -> Path:
        if k < 0:
            raise ValueError(f"member index must be >= 0, got {k}")
        return self.directory / f"member_{k:05d}.bin"

    # -- writing -----------------------------------------------------------
    # Both go through ExtentWriter, the one write body (its docstring has the
    # atomic protocol); FaultyStore borrows them and so injects its faults
    # through its own extent_writer().
    def write_member(self, k: int, state: np.ndarray) -> Path:
        """Write one member's flat state vector atomically."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.grid.n,):
            raise ValueError(
                f"state must have shape ({self.grid.n},), got {state.shape}"
            )
        with self.extent_writer() as writer:
            writer.write(k, (tuple(self.layout.full_file_extent()),), state)
        return self.member_path(k)

    def write_ensemble(self, states: np.ndarray) -> list[Path]:
        """Write an (n, N) ensemble as N member files: one extent each."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.n:
            raise ValueError(
                f"ensemble must be ({self.grid.n}, N), got {states.shape}"
            )
        plan = ReadPlan("whole-member", self.layout, states.shape[1])
        whole = tuple(self.layout.full_file_extent())
        plan.rank_plan(0).reads = [
            ReadOp._trusted(k, whole) for k in range(states.shape[1])
        ]
        return write_plan_to_disk(plan, states, self)

    def extent_writer(self, before_write=None) -> "ExtentWriter":
        """An :class:`ExtentWriter` committing this store's member files.

        ``before_write(k)`` runs before member ``k`` is written (how
        :class:`~repro.faults.store.FaultyStore` injects its torn writes).
        """
        return ExtentWriter(self, before_write)

    # -- reading ------------------------------------------------------------
    def n_members(self) -> int:
        """Number of member files present."""
        return len(list(self.directory.glob("member_*.bin")))

    def read_member(self, k: int) -> np.ndarray:
        """Read one full member.

        Raises :class:`~repro.faults.errors.CorruptMemberError` (a
        ``ValueError`` subclass) when the file holds the wrong number of
        values — a truncated or overgrown member must never silently become
        a wrong-shape ensemble column.
        """
        tracer = get_tracer()
        if not tracer.enabled:  # hot path: no span/dict allocations
            return self._read_member(k)
        with tracer.span("store.read_member", category="io", member=k) as span:
            data = self._read_member(k)
            span.set(bytes=data.size * _DTYPE.itemsize)
        metrics = get_metrics()
        metrics.counter("io.members_read").inc()
        metrics.counter("io.bytes_read").inc(data.size * _DTYPE.itemsize)
        return data

    def _read_member(self, k: int) -> np.ndarray:
        path = self.member_path(k)
        if not path.exists():
            raise FileNotFoundError(path)
        data = np.fromfile(path, dtype=_DTYPE)
        if data.size != self.grid.n:
            raise CorruptMemberError(
                k, f"{path} holds {data.size} values, expected {self.grid.n}"
            )
        return data.astype(float, copy=False)

    def read_ensemble(self) -> np.ndarray:
        """Read all members into an (n, N) matrix (member order)."""
        n = self.n_members()
        if n == 0:
            raise FileNotFoundError(f"no member files in {self.directory}")
        states = np.empty((self.grid.n, n))
        for k in range(n):
            states[:, k] = self.read_member(k)
        return states

    def extent_reader(self, before_read=None) -> "ExtentReader":
        """An :class:`ExtentReader` over this store's member files.

        ``before_read(k)`` runs at the start of every read of member ``k``
        (how :class:`~repro.faults.store.FaultyStore` injects its faults).
        """
        return ExtentReader(self, before_read)


class _Extents:
    """One distinct extents tuple, range-checked against the grid."""

    def __init__(self, extents, n: int):
        table = np.asarray(extents, dtype=np.int64).reshape(-1, 2)
        start, length = table[:, 0], table[:, 1]
        bad = (start < 0) | (length <= 0) | (start + length > n)
        if bad.any():
            first = int(bad.argmax())
            raise ValueError(
                f"extent ({start[first]}, {length[first]}) out of range"
            )
        #: (start, length) rows, in elements
        self.table = table
        self.n_elems = int(length.sum())
        self.max_end = int((start + length).max(initial=0))

    @cached_property
    def packed(self) -> list[tuple[int, int, int]]:
        """(file offset, lo, hi) in bytes, the extents back to back."""
        hi = np.cumsum(self.table[:, 1]) * _ITEM
        return self._reads(hi - self.table[:, 1] * _ITEM)

    @cached_property
    def in_place(self) -> list[tuple[int, int, int]]:
        """(file offset, lo, hi) in bytes, every extent at its own file
        offset: the destination mirrors the member file."""
        return self._reads(self.table[:, 0] * _ITEM)

    def _reads(self, lo: np.ndarray) -> list[tuple[int, int, int]]:
        offset = self.table[:, 0] * _ITEM
        hi = lo + self.table[:, 1] * _ITEM
        return list(zip(offset.tolist(), lo.tolist(), hi.tolist()))

    def first_beyond(self, file_elems: int) -> tuple[int, int]:
        """The first extent that ends past ``file_elems``."""
        ends = self.table[:, 0] + self.table[:, 1]
        start, length = self.table[int((ends > file_elems).argmax())]
        return int(start), int(length)


class _ExtentTables:
    """Every distinct extents tuple, range-checked once per instance."""

    def __init__(self, store: EnsembleStore):
        self._store = store
        self._extents: dict[tuple, _Extents] = {}

    def _checked(self, extents: tuple) -> _Extents:
        checked = self._extents.get(extents)
        if checked is None:
            checked = self._extents[extents] = _Extents(
                extents, self._store.grid.n
            )
        return checked


class ExtentReader(_ExtentTables):
    """Executes extent reads against one store's member files.

    For the life of the ``with`` block every member file is opened and
    sized once (on its first read) and every distinct extents tuple is
    range-checked once.  What is left per read is one comparison against
    the file's size and one result array, and per extent exactly one
    positional read straight into that array — the disk-addressing
    operation the simulator charges for, so an extent has to fit one read
    call (2 GiB on Linux); a short read is a
    :class:`~repro.faults.errors.CorruptMemberError`.  ``extents`` must be
    hashable (:attr:`~repro.io.plan.ReadOp.extents` is).  Not thread-safe.
    """

    def __init__(self, store: EnsembleStore, before_read=None):
        super().__init__(store)
        self._before_read = before_read
        self._files: dict[int, tuple[int, int]] = {}  # k -> fd, elements

    def __enter__(self) -> "ExtentReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._files:
            os.close(self._files.popitem()[1][0])

    def read(self, k: int, extents: tuple) -> np.ndarray:
        """Member ``k``'s values over ``extents``, back to back."""
        return self._traced(k, extents, None)

    def read_into(self, k: int, extents: tuple, mirror: np.ndarray) -> None:
        """Read ``extents`` of member ``k`` to their own positions in
        ``mirror``, a contiguous ``<f8`` array of ``grid.n`` elements."""
        if (
            mirror.shape != (self._store.grid.n,)
            or mirror.dtype != _DTYPE
            or not mirror.flags.c_contiguous
        ):
            raise ValueError(
                f"mirror must be a contiguous <f8 array of shape "
                f"({self._store.grid.n},)"
            )
        self._traced(k, extents, mirror)

    def _file(self, k: int) -> tuple[int, int]:
        entry = self._files.get(k)
        if entry is None:
            fd = os.open(self._store.member_path(k), os.O_RDONLY)
            try:
                entry = (fd, os.fstat(fd).st_size // _ITEM)
            except OSError:
                os.close(fd)
                raise
            self._files[k] = entry
        return entry

    def _traced(self, k: int, extents: tuple, mirror) -> np.ndarray | None:
        tracer = get_tracer()
        if not tracer.enabled:  # hot path: no span/dict allocations
            return self._execute(k, extents, mirror)
        with tracer.span(
            "store.read_extents", category="io", member=k, seeks=len(extents)
        ) as span:
            data = self._execute(k, extents, mirror)
            nbytes = self._extents[extents].n_elems * _ITEM
            span.set(bytes=nbytes)
        metrics = get_metrics()
        metrics.counter("io.extent_reads").inc()
        metrics.counter("io.seeks").inc(len(extents))
        metrics.counter("io.bytes_read").inc(nbytes)
        return data

    def _execute(self, k: int, extents: tuple, mirror) -> np.ndarray | None:
        if self._before_read is not None:
            self._before_read(k)
        fd, file_elems = self._file(k)
        checked = self._checked(extents)
        if checked.max_end > file_elems:
            start, length = checked.first_beyond(file_elems)
            raise CorruptMemberError(
                k,
                f"extent ({start}, {length}) beyond end of "
                f"{self._store.member_path(k)} ({file_elems} of "
                f"{self._store.grid.n} expected values present)",
            )
        if mirror is None:
            out = np.empty(checked.n_elems, dtype=_DTYPE)
            view, reads = memoryview(out).cast("B"), checked.packed
        else:
            out = None
            view, reads = memoryview(mirror).cast("B"), checked.in_place
        for offset, lo, hi in reads:
            got = os.preadv(fd, (view[lo:hi],), offset)
            if got != hi - lo:
                raise CorruptMemberError(
                    k,
                    f"short read on {self._store.member_path(k)}: got {got} "
                    f"of {hi - lo} bytes at element {offset // _ITEM}",
                )
        # a byte-order conversion on a big-endian host, no copy elsewhere
        return None if out is None else out.astype(float, copy=False)


class ExtentWriter(_ExtentTables):
    """Commits whole member files from their ``(n,)`` rows: the one write
    body behind :func:`write_plan_to_disk`, ``write_ensemble`` and
    ``write_member``.

    :meth:`write` gathers member ``k``'s row on the calling thread and
    hands it to a writer thread, which opens ``member_k.bin.tmp``, makes
    one positional write per extent at the extent's own offset, ``fsync``s
    and closes it, and only then ``os.replace``s it over ``member_k.bin``.
    Members commit concurrently, but each rename follows its own
    ``fsync``, so a reader sees the previous complete member file or the
    new complete one, never a torn one; a stale ``.tmp`` from an earlier
    crash is simply overwritten (and never matches ``member_*.bin``).  A
    short write is an ``OSError``.  At most :data:`_WRITE_WINDOW` rows are
    alive at once: the caller gathers the next member while the writers
    wait on the disk.

    ``before_write(k)`` runs on the calling thread before member ``k`` is
    gathered.  After any failure no further member is started; the end of
    the ``with`` block lets the commits in flight finish, then re-raises
    the first failing member's exception in member order.  The writer
    threads record into the caller's tracer and metrics.  Not thread-safe.
    """

    def __init__(self, store: EnsembleStore, before_write=None):
        super().__init__(store)
        self._before_write = before_write
        self._tracer, self._metrics = get_tracer(), get_metrics()
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            _WRITE_WINDOW, thread_name_prefix="senkf-write"
        )
        self._slots = threading.Semaphore(_WRITE_WINDOW)
        self._commits: list = []  # (k, future), in submit order

    def __enter__(self) -> "ExtentWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Wait for every commit; re-raise the first failure in member
        order (idempotent)."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        pool.shutdown(wait=True)
        for _, commit in sorted(self._commits, key=lambda entry: entry[0]):
            commit.result()

    def write(self, k: int, extents_tuples, row: np.ndarray) -> None:
        """Commit member ``k`` from ``row``, its ``grid.n`` values, over
        every extent of every tuple in ``extents_tuples``."""
        self._slots.acquire()
        try:
            if any(
                commit.done() and commit.exception() is not None
                for _, commit in self._commits
            ):
                self.close()  # raises
            if self._before_write is not None:
                self._before_write(k)
            writes = [self._checked(e).in_place for e in extents_tuples]
            row = np.ascontiguousarray(row, dtype=_DTYPE)
            commit = self._pool.submit(self._commit, k, writes, row)
        except BaseException:
            self._slots.release()
            raise
        commit.add_done_callback(lambda _: self._slots.release())
        self._commits.append((k, commit))

    def _commit(self, k: int, writes, row: np.ndarray) -> None:
        # Both may be thread-scoped in the caller; a pool thread would
        # otherwise see the process-global defaults.
        with use_thread_tracer(self._tracer), use_thread_metrics(self._metrics):
            tracer = get_tracer()
            if not tracer.enabled:  # hot path: no span/dict allocations
                return self._write_file(k, writes, row)
            with tracer.span(
                "store.write_member", category="io", member=k,
                bytes=row.nbytes,
            ):
                self._write_file(k, writes, row)
            metrics = get_metrics()
            metrics.counter("io.members_written").inc()
            metrics.counter("io.bytes_written").inc(row.nbytes)

    def _write_file(self, k: int, writes, row: np.ndarray) -> None:
        path = self._store.member_path(k)
        tmp = path.with_name(path.name + ".tmp")
        view = memoryview(row).cast("B")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            for in_place in writes:
                for offset, lo, hi in in_place:
                    wrote = os.pwritev(fd, (view[lo:hi],), offset)
                    if wrote != hi - lo:
                        raise OSError(
                            errno.EIO,
                            f"short write on {tmp}: {wrote} of {hi - lo} "
                            f"bytes at element {offset // _ITEM}",
                        )
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)


def read_plan_from_disk(
    plan: ReadPlan, store: EnsembleStore
) -> dict[int, dict[int, np.ndarray]]:
    """Execute a strategy's :class:`ReadPlan` against real files.

    Returns ``rank -> file_id -> values``, each op's extents back to back,
    with one genuine positional read per extent against the store —
    end-to-end proof that the plans' extents are valid on the real layout.
    """
    tracer = get_tracer()
    out: dict[int, dict[int, np.ndarray]] = {}
    with store.extent_reader() as reader, tracer.span(
        "io.read_plan", category="io", n_ranks=len(plan.per_rank)
    ):
        for rank, rank_plan in plan.per_rank.items():
            per_file: dict[int, np.ndarray] = {}
            with tracer.span(
                "io.read_plan.rank", category="io", rank=rank,
                n_ops=len(rank_plan.reads),
            ):
                for op in rank_plan.reads:
                    per_file[op.file_id] = reader.read(op.file_id, op.extents)
            out[rank] = per_file
    return out


def stage_plan_from_disk(
    plan: ReadPlan,
    store: EnsembleStore,
    retry: RetryPolicy | None = None,
    report: ResilienceReport | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Execute a :class:`ReadPlan` straight into the ``(n, N)`` background:
    the one body that reads a plan into the program.

    Every extent of every op is read to its own place in a member-major
    ``(N, n)`` buffer (overlapping halos rewrite equal values), which is
    transposed once at the end.  A plan that leaves any element of any
    file unread raises ``ValueError`` before anything is read.  Returns
    ``(background, dropped)``.

    With ``retry=None`` every op is one attempt and every error propagates
    as itself, so ``dropped`` is ``[]``.  With a
    :class:`~repro.faults.policy.RetryPolicy` each op runs under
    :func:`~repro.faults.policy.run_with_retry`; a member whose op is
    corrupt or outlasts the policy is dropped once (``report.drop_member``,
    ``report.failed_ops``, a ``fault.unrecoverable`` span), its later ops
    are skipped and its column is left NaN, for
    :meth:`~repro.filters.distributed.DistributedEnKF.assimilate_degraded`
    to leave out.
    """
    n, n_files = store.grid.n, plan.n_files
    ops = [op for rank_plan in plan.per_rank.values() for op in rank_plan.reads]
    if retry is not None and report is None:
        report = ResilienceReport()
    lost: set[int] = set()
    with store.extent_reader() as reader:
        _check_covers(ops, reader, n_files, "unread")
        mirror = np.empty((n_files, n), dtype=_DTYPE)
        for op in ops:
            k = op.file_id
            if retry is None:
                reader.read_into(k, op.extents, mirror[k])
            elif k not in lost:
                t0, retries = get_tracer().now(), report.retries
                try:
                    run_with_retry(
                        partial(reader.read_into, k, op.extents, mirror[k]),
                        retry, report, member=k,
                    )
                except (CorruptMemberError, OSError) as exc:
                    lost.add(k)
                    _drop(k, exc, report, t0, 1 + report.retries - retries)
    dropped = sorted(lost)
    mirror[dropped] = np.nan
    return np.ascontiguousarray(mirror.T).astype(float, copy=False), dropped


def _drop(
    k: int, exc: BaseException, report: ResilienceReport, t0: float,
    attempts: int,
) -> None:
    """Account for member ``k``, dropped by ``exc`` after ``attempts``
    attempts at the op that started at ``t0``."""
    report.failed_ops += 1
    report.drop_member(k)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.record(
            "fault.unrecoverable", t0, tracer.now(), category="fault",
            member=k, error=type(exc).__name__, attempts=attempts,
        )
        get_metrics().counter("fault.members_unrecoverable").inc()


def write_plan_to_disk(
    plan: ReadPlan, states: np.ndarray, store: EnsembleStore
) -> list[Path]:
    """Commit the ``(n, N)`` analysis along a write plan; the mirror of
    :func:`stage_plan_from_disk`.

    ``plan`` is any plan whose ops tile the files
    (:func:`~repro.io.writers.bar_gather_write_plan`,
    :func:`~repro.io.writers.block_write_plan`, a read plan's overlapping
    halos rewrite equal values).  Member ``k`` is written from
    ``states[:, k]``, one positional write per extent of every op on file
    ``k``, and committed by the store's :class:`ExtentWriter`.  A plan that
    leaves any element of any file unwritten raises ``ValueError`` before
    any file is opened.  Returns the member paths.
    """
    n, n_files = store.grid.n, plan.n_files
    states = np.asarray(states, dtype=float)
    if states.shape != (n, n_files):
        raise ValueError(
            f"ensemble must be ({n}, {n_files}), got {states.shape}"
        )
    ops = [op for rank_plan in plan.per_rank.values() for op in rank_plan.reads]
    tuples_of: list[list[tuple]] = [[] for _ in range(n_files)]
    for op in ops:
        tuples_of[op.file_id].append(op.extents)
    with store.extent_writer() as writer:
        _check_covers(ops, writer, n_files, "unwritten")
        for k, tuples in enumerate(tuples_of):
            writer.write(k, tuples, states[:, k])
    return [store.member_path(k) for k in range(n_files)]


def _check_covers(
    ops, tables: _ExtentTables, n_files: int, missing: str
) -> None:
    """Raise ``ValueError`` unless ``ops`` cover every element of every
    file: one sweep over the extents sorted by start for each set of files
    that share their extents tuples (one set in the planners' plans)."""
    n = tables._store.grid.n
    tuples_of: list[set] = [set() for _ in range(n_files)]
    for op in ops:
        tuples_of[op.file_id].add(op.extents)
    first_hole: dict[frozenset, int | None] = {}
    for file_id, tuples in enumerate(map(frozenset, tuples_of)):
        if tuples not in first_hole:
            table = np.concatenate(
                [tables._checked(extents).table for extents in tuples]
                or [np.zeros((0, 2), dtype=np.int64)]
            )
            table = table[np.argsort(table[:, 0], kind="stable")]
            # reach[i]: the furthest end of the first i extents by start; the
            # first extent starting beyond it leaves a hole at reach[i]
            reach = np.concatenate(
                ([0], np.maximum.accumulate(table[:, 0] + table[:, 1]))
            )
            gaps = np.flatnonzero(table[:, 0] > reach[:-1])
            hole = reach[gaps[0]] if gaps.size else reach[-1]
            first_hole[tuples] = None if hole >= n else int(hole)
        if first_hole[tuples] is not None:
            raise ValueError(
                f"plan leaves element {first_hole[tuples]} of file "
                f"{file_id} {missing}"
            )
