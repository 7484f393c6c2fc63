"""Plan data structures shared by the inline and simulated backends.

A *plan* says what each rank reads from which file (:class:`ReadOp`) and
what it sends to whom (:class:`SendOp`) — never *how long* it takes (the
simulator's job) nor *which numbers* move (the inline executor's job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.io.layout import FileLayout


@dataclass(frozen=True)
class ReadOp:
    """One rank's access to one file: a list of extents."""

    file_id: int
    extents: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.file_id < 0:
            raise ValueError(f"file_id must be >= 0, got {self.file_id}")
        for start, length in self.extents:
            if start < 0 or length <= 0:
                raise ValueError(f"invalid extent ({start}, {length})")

    @classmethod
    def _trusted(cls, file_id: int, extents) -> "ReadOp":
        """Fast-path constructor for planners that already validated the
        (shared) extents tuple — full-scale plans build hundreds of
        thousands of ops over a few thousand distinct extent tuples, and
        re-validating every extent dominates plan construction."""
        op = object.__new__(cls)
        object.__setattr__(op, "file_id", file_id)
        object.__setattr__(op, "extents", extents)
        return op

    @property
    def seeks(self) -> int:
        """Disk-addressing operations: one per extent."""
        return len(self.extents)

    @cached_property
    def n_elems(self) -> int:
        return sum(length for _, length in self.extents)

    def nbytes(self, layout: FileLayout) -> int:
        return layout.nbytes(self.n_elems)

    def indices(self) -> np.ndarray:
        """Element indices read, in extent order."""
        return FileLayout.extent_indices(list(self.extents))


@dataclass(frozen=True)
class SendOp:
    """One point-to-point transfer in a communication plan."""

    source: int
    dest: int
    n_elems: int
    tag: int = 0

    def __post_init__(self) -> None:
        if self.n_elems < 0:
            raise ValueError(f"n_elems must be >= 0, got {self.n_elems}")

    @classmethod
    def _trusted(
        cls, source: int, dest: int, n_elems: int, tag: int
    ) -> "SendOp":
        """Fast-path constructor for planners whose ``n_elems`` are sizes
        of index arrays (never negative) — the bar planner builds one send
        per (group, bar, file, compute rank)."""
        op = object.__new__(cls)
        object.__setattr__(op, "source", source)
        object.__setattr__(op, "dest", dest)
        object.__setattr__(op, "n_elems", n_elems)
        object.__setattr__(op, "tag", tag)
        return op

    def nbytes(self, layout: FileLayout) -> int:
        return layout.nbytes(self.n_elems)


@dataclass
class RankReadPlan:
    """Everything one rank reads (in issue order) and then sends."""

    rank: int
    reads: list[ReadOp] = field(default_factory=list)
    sends: list[SendOp] = field(default_factory=list)

    @property
    def total_seeks(self) -> int:
        return sum(op.seeks for op in self.reads)

    @property
    def total_elems(self) -> int:
        return sum(op.n_elems for op in self.reads)


@dataclass
class ReadPlan:
    """A complete strategy output: per-rank plans plus bookkeeping."""

    strategy: str
    layout: FileLayout
    n_files: int
    per_rank: dict[int, RankReadPlan] = field(default_factory=dict)

    def rank_plan(self, rank: int) -> RankReadPlan:
        if rank not in self.per_rank:
            self.per_rank[rank] = RankReadPlan(rank=rank)
        return self.per_rank[rank]

    @property
    def reader_ranks(self) -> list[int]:
        """Ranks that touch the file system, sorted."""
        return sorted(r for r, p in self.per_rank.items() if p.reads)

    @property
    def total_seeks(self) -> int:
        return sum(p.total_seeks for p in self.per_rank.values())

    @property
    def total_elems_read(self) -> int:
        return sum(p.total_elems for p in self.per_rank.values())

    def total_bytes_read(self) -> int:
        return self.layout.nbytes(self.total_elems_read)
