"""Raw-binary ensemble files and extent-based reading.

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

import os
from pathlib import Path

import numpy as np

from repro.core.grid import Grid
from repro.faults.errors import CorruptMemberError
from repro.io.layout import FileLayout
from repro.io.plan import ReadPlan
from repro.telemetry.metrics import get_metrics
from repro.telemetry.tracer import get_tracer

_DTYPE = np.dtype("<f8")


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
    def write_member(self, k: int, state: np.ndarray) -> Path:
        """Write one member's flat state vector atomically.

        The bytes land in a sibling ``member_*.bin.tmp`` file which is
        fsynced and then ``os.replace``d over the real name, so a crashed
        writer can never leave a torn member file: a reader sees either
        the previous complete member or the new complete one, never a
        partial write.  A stale ``.tmp`` from an earlier crash is simply
        overwritten (and never matches the ``member_*.bin`` glob).
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self.grid.n,):
            raise ValueError(
                f"state must have shape ({self.grid.n},), got {state.shape}"
            )
        tracer = get_tracer()
        if not tracer.enabled:
            return self._write_member(k, state)
        nbytes = state.size * _DTYPE.itemsize
        with tracer.span(
            "store.write_member", category="io", member=k, bytes=nbytes
        ):
            path = self._write_member(k, state)
        metrics = get_metrics()
        metrics.counter("io.members_written").inc()
        metrics.counter("io.bytes_written").inc(nbytes)
        return path

    def _write_member(self, k: int, state: np.ndarray) -> Path:
        path = self.member_path(k)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            # one copy at most: the buffer itself is written, not a bytes twin
            fh.write(np.ascontiguousarray(state, dtype=_DTYPE).data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return path

    def write_ensemble(self, states: np.ndarray) -> list[Path]:
        """Write an (n, N) ensemble as N member files."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] != self.grid.n:
            raise ValueError(
                f"ensemble must be ({self.grid.n}, N), got {states.shape}"
            )
        return [
            self.write_member(k, states[:, k]) for k in range(states.shape[1])
        ]

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
        return data.astype(float)

    def read_ensemble(self) -> np.ndarray:
        """Read all members into an (n, N) matrix (member order)."""
        n = self.n_members()
        if n == 0:
            raise FileNotFoundError(f"no member files in {self.directory}")
        return np.column_stack([self.read_member(k) for k in range(n)])

    def read_extents(
        self, k: int, extents: list[tuple[int, int]]
    ) -> np.ndarray:
        """Read a list of (start_elem, n_elems) extents with real seeks.

        One ``seek`` + one ``read`` per extent — the exact disk-addressing
        pattern the simulator charges for.

        Extent bounds are validated against both the logical grid size and
        the *actual* file size, and every read is checked for shortness, so
        an undersized member file raises a typed
        :class:`~repro.faults.errors.CorruptMemberError` instead of
        yielding a silently wrong-shaped array.
        """
        tracer = get_tracer()
        if not tracer.enabled:  # hot path: no span/dict allocations
            return self._read_extents(k, extents)
        with tracer.span(
            "store.read_extents", category="io", member=k, seeks=len(extents)
        ) as span:
            data = self._read_extents(k, extents)
            span.set(bytes=data.size * _DTYPE.itemsize)
        metrics = get_metrics()
        metrics.counter("io.extent_reads").inc()
        metrics.counter("io.seeks").inc(len(extents))
        metrics.counter("io.bytes_read").inc(data.size * _DTYPE.itemsize)
        return data

    def _read_extents(
        self, k: int, extents: list[tuple[int, int]]
    ) -> np.ndarray:
        path = self.member_path(k)
        if not path.exists():
            raise FileNotFoundError(path)
        item = _DTYPE.itemsize
        file_elems = path.stat().st_size // item
        pieces = []
        with open(path, "rb") as fh:
            for start, length in extents:
                if start < 0 or length <= 0 or start + length > self.grid.n:
                    raise ValueError(f"extent ({start}, {length}) out of range")
                if start + length > file_elems:
                    raise CorruptMemberError(
                        k,
                        f"extent ({start}, {length}) beyond end of {path} "
                        f"({file_elems} of {self.grid.n} expected values "
                        f"present)",
                    )
                fh.seek(start * item)
                buf = fh.read(length * item)
                if len(buf) != length * item:
                    raise CorruptMemberError(
                        k,
                        f"short read on {path}: got {len(buf)} of "
                        f"{length * item} bytes at element {start}",
                    )
                pieces.append(np.frombuffer(buf, dtype=_DTYPE))
        return np.concatenate(pieces).astype(float)


def read_plan_from_disk(
    plan: ReadPlan, store: EnsembleStore
) -> dict[int, dict[int, np.ndarray]]:
    """Execute a strategy's :class:`ReadPlan` against real files.

    Returns ``rank -> file_id -> values`` exactly like
    :func:`repro.io.execute.execute_read_plan_inline`, but with genuine
    ``seek``/``read`` calls against the store — end-to-end proof that the
    plans' extents are valid on the real layout.
    """
    tracer = get_tracer()
    out: dict[int, dict[int, np.ndarray]] = {}
    with tracer.span(
        "io.read_plan", category="io", n_ranks=len(plan.per_rank)
    ):
        for rank, rank_plan in plan.per_rank.items():
            per_file: dict[int, np.ndarray] = {}
            with tracer.span(
                "io.read_plan.rank", category="io", rank=rank,
                n_ops=len(rank_plan.reads),
            ):
                for op in rank_plan.reads:
                    per_file[op.file_id] = store.read_extents(
                        op.file_id, list(op.extents)
                    )
            out[rank] = per_file
    return out
