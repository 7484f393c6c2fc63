"""The four reading strategies as pure planners.

World/rank convention (shared with the filters):

* compute ranks ``0 .. n_s-1`` own sub-domains in latitude-band-major order
  (``rank = j * n_sdx + i``);
* dedicated I/O ranks (bar/concurrent strategies) follow at
  ``n_s + g * n_sdy + j`` for concurrent group ``g`` and bar ``j``.

===================  =========================================================
single-reader        L-EnKF (Keppenne 2000): rank 0 reads each member file in
                     full (1 seek) and sends every other rank its expansion
                     block, serially.
block reading        P-EnKF (Fig. 3): every compute rank reads its own
                     expansion block from every file — no communication, but
                     one seek per block row, ``O(n_y · n_sdx)`` seeks per
                     file in total, all aimed at the single disk holding the
                     file being read.
bar reading          Fig. 6 (= concurrent access with n_cg = 1): ``n_sdy``
                     I/O ranks read one contiguous bar each (1 seek), then
                     send each compute rank of their latitude band its block.
concurrent access    Fig. 7: ``n_cg`` groups of ``n_sdy`` I/O ranks read
                     ``n_cg`` different files simultaneously; each group
                     covers ``N / n_cg`` files.
===================  =========================================================
"""

from __future__ import annotations

from repro.core.domain import Decomposition
from repro.io.layout import FileLayout
from repro.io.plan import ReadOp, ReadPlan, SendOp
from repro.util.validation import check_divides, check_positive


def _expansion_block_elems(decomp: Decomposition, i: int, j: int) -> int:
    """Elements in the expansion block of sub-domain (i, j)."""
    sd = decomp.subdomain(i, j)
    return sd.exp_size


def single_reader_plan(
    decomp: Decomposition, layout: FileLayout, n_files: int
) -> ReadPlan:
    """L-EnKF: one reader, serial distribution."""
    check_positive("n_files", n_files)
    plan = ReadPlan(strategy="single_reader", layout=layout, n_files=n_files)
    reader = plan.rank_plan(0)
    for f in range(n_files):
        reader.reads.append(ReadOp(file_id=f, extents=tuple(layout.full_file_extent())))
        for j in range(decomp.n_sdy):
            for i in range(decomp.n_sdx):
                dest = decomp.rank_of(i, j)
                if dest == 0:
                    continue
                reader.sends.append(
                    SendOp(
                        source=0,
                        dest=dest,
                        n_elems=_expansion_block_elems(decomp, i, j),
                        tag=f,
                    )
                )
    return plan


def block_read_plan(
    decomp: Decomposition, layout: FileLayout, n_files: int
) -> ReadPlan:
    """P-EnKF: every compute rank reads its expansion block of every file."""
    check_positive("n_files", n_files)
    plan = ReadPlan(strategy="block", layout=layout, n_files=n_files)
    for sd in decomp:
        rank = decomp.rank_of(sd.i, sd.j)
        rp = plan.rank_plan(rank)
        extents = tuple(
            layout.block_extents(
                sd.exp_x_indices,
                int(sd.exp_y_indices[0]),
                int(sd.exp_y_indices[-1]) + 1,
            )
        )
        # Validate once (first op), then reuse the shared tuple unchecked.
        for f in range(n_files):
            if f == 0:
                rp.reads.append(ReadOp(file_id=f, extents=extents))
            else:
                rp.reads.append(ReadOp._trusted(f, extents))
    return plan


def concurrent_access_plan(
    decomp: Decomposition,
    layout: FileLayout,
    n_files: int,
    n_cg: int,
) -> ReadPlan:
    """S-EnKF's concurrent access: ``n_cg`` groups of bar readers.

    Group ``g`` reads files ``{f : f ≡ g (mod n_cg)}`` — ``N / n_cg`` files
    per group (the paper requires ``n_cg | N``; Algorithm 1 enforces the
    same divisibility).  Within a group, I/O rank ``j`` reads bar ``j`` of
    each assigned file (one seek) and sends each compute rank of latitude
    band ``j`` its expansion block restricted to the bar.
    """
    check_positive("n_files", n_files)
    check_divides("n_files", n_files, "n_cg", n_cg)
    plan = ReadPlan(strategy=f"concurrent[{n_cg}]", layout=layout, n_files=n_files)
    io_base = decomp.n_subdomains
    # Per bar: its extents and its (dest, n_elems) send list, the same for
    # every file and every group.
    bars = []
    for j in range(decomp.n_sdy):
        iy0, iy1 = decomp.bar_read_rows(j)
        targets = [
            (
                decomp.rank_of(i, j),
                len(decomp.subdomain(i, j).exp_x_indices) * (iy1 - iy0),
            )
            for i in range(decomp.n_sdx)
        ]
        bars.append((tuple(layout.bar_extents(iy0, iy1)), targets))
    for g in range(n_cg):
        files = range(g, n_files, n_cg)
        for j, (extents, targets) in enumerate(bars):
            io_rank = io_base + g * decomp.n_sdy + j
            rp = plan.rank_plan(io_rank)
            for f in files:
                rp.reads.append(ReadOp(file_id=f, extents=extents))
                rp.sends.extend(
                    SendOp._trusted(io_rank, dest, n_elems, f)
                    for dest, n_elems in targets
                )
    return plan


def bar_read_plan(
    decomp: Decomposition, layout: FileLayout, n_files: int
) -> ReadPlan:
    """Plain bar reading (Fig. 6) = concurrent access with one group."""
    plan = concurrent_access_plan(decomp, layout, n_files, n_cg=1)
    plan.strategy = "bar"
    return plan
