"""On-disk layout of ensemble files and the reading strategies.

The background ensemble is stored as one file per member: the field
``X^{b[k]} ∈ R^{n_x × n_y}`` laid out contiguously latitude-row-major (one
latitude row of ``n_x`` longitudes after another), as Sec. 4.1.1 describes.
From that layout:

* a **bar** (a band of latitude rows, full longitude width) is one
  contiguous extent — one disk-addressing operation (Fig. 6);
* a **block** (a longitude slice of a band) is one extent *per row* —
  ``O(n_y / n_sdy)`` seeks per processor and ``O(n_y · n_sdx)`` in total
  (Fig. 3, Fig. 5's linear growth).

Strategies are pure planners: they emit :class:`ReadOp`/:class:`SendOp`
structures that (a) :func:`repro.data.stage_plan_from_disk` executes
against real member files and (b) the simulated backend executes against
the DES machine.  One plan, two substrates (DESIGN.md §6.1).
"""

from repro.io.layout import FileLayout, contiguous_runs
from repro.io.plan import ReadOp, SendOp, RankReadPlan, ReadPlan
from repro.io.execute import simulate_op_read, simulate_read_plan
from repro.io.writers import (
    bar_gather_write_plan,
    block_write_plan,
    simulate_write_plan,
)
from repro.io.strategies import (
    bar_read_plan,
    block_read_plan,
    concurrent_access_plan,
    single_reader_plan,
)

__all__ = [
    "FileLayout",
    "RankReadPlan",
    "ReadOp",
    "ReadPlan",
    "SendOp",
    "bar_gather_write_plan",
    "bar_read_plan",
    "block_read_plan",
    "block_write_plan",
    "concurrent_access_plan",
    "contiguous_runs",
    "simulate_op_read",
    "simulate_read_plan",
    "simulate_write_plan",
    "single_reader_plan",
]
